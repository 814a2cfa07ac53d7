package faults

import (
	"context"
	"errors"
	"io"
	"strings"
	"testing"
	"time"

	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
)

// sliceIter yields n synthetic reads then EOF.
type sliceIter struct{ i, n int }

func (s *sliceIter) Next() (reads.AlignedRead, error) {
	if s.i >= s.n {
		return reads.AlignedRead{}, io.EOF
	}
	s.i++
	return reads.AlignedRead{Pos: s.i}, nil
}

// drain pulls the whole iterator, returning delivered positions and the
// errors encountered (EOF excluded).
func drain(t *testing.T, it pipeline.ReadIter) (got []int, errs []error) {
	t.Helper()
	for {
		r, err := it.Next()
		if err == io.EOF {
			return got, errs
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		got = append(got, r.Pos)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"corrupt-every", "bogus=1", "stall=fast", "corrupt-every=x"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q): want error", spec)
		}
	}
}

func TestCorruptScheduleIsPositionalAndRepeatable(t *testing.T) {
	inj, err := Parse("corrupt-every=3")
	if err != nil {
		t.Fatal(err)
	}
	s := inj.Stream("chr1")
	for pass := 0; pass < 2; pass++ {
		got, errs := drain(t, s.WrapIter(&sliceIter{n: 10}))
		if want := []int{1, 2, 4, 5, 7, 8, 10}; len(got) != len(want) {
			t.Fatalf("pass %d: delivered %v, want %v", pass, got, want)
		} else {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("pass %d: delivered %v, want %v", pass, got, want)
				}
			}
		}
		if len(errs) != 3 {
			t.Fatalf("pass %d: %d errors, want 3", pass, len(errs))
		}
		var ce *CorruptError
		if !errors.As(errs[0], &ce) || ce.Line != 3 {
			t.Fatalf("pass %d: first error %v, want CorruptError at line 3", pass, errs[0])
		}
		var re pipeline.RecordError
		if !errors.As(errs[0], &re) {
			t.Fatalf("CorruptError must implement pipeline.RecordError")
		}
	}
}

func TestSeedOffsetsSchedule(t *testing.T) {
	inj, _ := Parse("corrupt-every=4,seed=1")
	_, errs := drain(t, inj.Stream("x").WrapIter(&sliceIter{n: 10}))
	var ce *CorruptError
	if len(errs) != 2 || !errors.As(errs[0], &ce) || ce.Line != 5 {
		t.Fatalf("seed=1: errs=%v, want corrupt at lines 5,9", errs)
	}
}

func TestTransientBudgetPersistsAcrossPasses(t *testing.T) {
	inj, _ := Parse("transient-every=5,transient-fails=2")
	s := inj.Stream("chr1")
	for pass := 0; pass < 2; pass++ {
		_, errs := drain(t, s.WrapIter(&sliceIter{n: 9}))
		if len(errs) != 1 {
			t.Fatalf("pass %d: %d errors, want 1", pass, len(errs))
		}
		var te *TransientError
		if !errors.As(errs[0], &te) || te.Line != 5 {
			t.Fatalf("pass %d: %v, want TransientError at line 5", pass, errs[0])
		}
		var re pipeline.RecordError
		if errors.As(errs[0], &re) {
			t.Fatal("TransientError must NOT be record-scoped")
		}
		if pipeline.Containable(errs[0]) {
			t.Fatal("TransientError must not be containable")
		}
	}
	// Budget exhausted: the third pass is clean.
	got, errs := drain(t, s.WrapIter(&sliceIter{n: 9}))
	if len(errs) != 0 || len(got) != 9 {
		t.Fatalf("third pass: %d records, errs=%v; want 9 clean records", len(got), errs)
	}
	// Budgets are per stream.
	if _, errs := drain(t, inj.Stream("chr2").WrapIter(&sliceIter{n: 9})); len(errs) != 1 {
		t.Fatalf("fresh stream: %d errors, want 1", len(errs))
	}
}

func TestPanicWindowFiresOncePerStream(t *testing.T) {
	inj, _ := Parse("panic-window=2")
	ctx := context.Background()
	panics := func(s *Stream) (v any) {
		defer func() { v = recover() }()
		s.WindowHook(ctx, 2, 8000, 12000)
		return nil
	}
	s := inj.Stream("chr1")
	if err := s.WindowHook(ctx, 1, 4000, 8000); err != nil {
		t.Fatalf("window 1: %v", err)
	}
	if panics(s) == nil {
		t.Fatal("chr1 window 2: want panic")
	}
	// A retry of the same stream passes: the panic is once per stream.
	if err := inj.Stream("chr1").WindowHook(ctx, 2, 8000, 12000); err != nil {
		t.Fatalf("retried chr1 window 2: %v", err)
	}
	// Every other stream panics at its own window 2, whichever ran first,
	// so where the panic lands does not depend on scheduling.
	if panics(inj.Stream("chr2")) == nil {
		t.Fatal("chr2 window 2: want panic")
	}
	if err := inj.Stream("chr2").WindowHook(ctx, 2, 8000, 12000); err != nil {
		t.Fatalf("retried chr2 window 2: %v", err)
	}
}

func TestStallRespectsContextAndBudget(t *testing.T) {
	inj, _ := Parse("stall-window=0,stall=10s")
	s := inj.Stream("chr1")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.WindowHook(ctx, 0, 0, 4000)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("stall under deadline: err=%v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("stall ignored the context")
	}
	// Budget spent: second visit does not stall.
	if err := s.WindowHook(context.Background(), 0, 0, 4000); err != nil {
		t.Fatalf("second visit: %v", err)
	}
}

func TestEmptySpecInjectsNothing(t *testing.T) {
	inj, err := Parse("")
	if err != nil {
		t.Fatal(err)
	}
	s := inj.Stream("chr1")
	got, errs := drain(t, s.WrapIter(&sliceIter{n: 50}))
	if len(errs) != 0 || len(got) != 50 {
		t.Fatalf("empty spec: %d records, errs=%v", len(got), errs)
	}
	if err := s.WindowHook(context.Background(), 0, 0, 4000); err != nil {
		t.Fatal(err)
	}
}

// TestParseRejectsDiskKeys: disk faults are injected through the
// durable-write seam, not the spec, so their old keys are unknown keys
// instead of parsing and then injecting nothing.
func TestParseRejectsDiskKeys(t *testing.T) {
	for _, spec := range []string{"disk-fail-every=1", "disk-fails=2", "seed=1,disk-fail-every=3,disk-fails=2"} {
		if _, err := Parse(spec); err == nil || !strings.Contains(err.Error(), "unknown key") {
			t.Errorf("Parse(%q) = %v, want an unknown-key error", spec, err)
		}
	}
}
