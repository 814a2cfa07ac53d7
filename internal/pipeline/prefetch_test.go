package pipeline

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"gsnp/internal/dna"
	"gsnp/internal/reads"
	"gsnp/internal/seqsim"
)

// TestWindowPrefetcherNoGoroutineLeakOnAbort aborts consumers mid-stream
// and requires every producer goroutine to exit: a leaked producer would
// pin its Windower and buffers for the life of a whole-genome process,
// once per aborted (failed, cancelled, quarantine-aborted) chromosome.
func TestWindowPrefetcherNoGoroutineLeakOnAbort(t *testing.T) {
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{Name: "t", Length: 20000, Depth: 8, Seed: 3})
	baseline := runtime.NumGoroutine()

	for i := 0; i < 8; i++ {
		it, _ := MemSource(ds.Reads).Open()
		pf := NewWindowPrefetcher(NewWindower(it), 20000, 100, i%2 != 0)
		if _, ok := pf.Next(); !ok {
			t.Fatal("first window missing")
		}
		pf.Stop() // consumer abort: most windows never consumed
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after Stop, baseline %d; producers leaked:\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}

// flakyIter yields reads at increasing positions, returning a record error
// in place of every badEvery-th record.
type flakyIter struct {
	n, total, badEvery int
}

type flakyRecordError struct{ line int }

func (e *flakyRecordError) Error() string        { return fmt.Sprintf("flaky record %d", e.line) }
func (e *flakyRecordError) Record() (int, int64) { return e.line, -1 }
func (it *flakyIter) Next() (reads.AlignedRead, error) {
	if it.n >= it.total {
		return reads.AlignedRead{}, io.EOF
	}
	it.n++
	if it.badEvery > 0 && it.n%it.badEvery == 0 {
		return reads.AlignedRead{}, &flakyRecordError{line: it.n}
	}
	return reads.AlignedRead{ID: int64(it.n), Pos: it.n * 10, Bases: make(dna.Sequence, 5)}, nil
}

// TestResilientPrefetcherContinuesPastRecordError: the resilient variant
// delivers the failed window and keeps producing; the strict variant stops
// after delivering the failure.
func TestResilientPrefetcherContinuesPastRecordError(t *testing.T) {
	const total, window = 1000, 100
	run := func(resilient bool) (windows, failed int) {
		it := &flakyIter{total: 50, badEvery: 20}
		pf := NewWindowPrefetcher(NewWindower(it), total, window, resilient)
		defer pf.Stop()
		for {
			pw, ok := pf.Next()
			if !ok {
				return windows, failed
			}
			windows++
			if pw.Err != nil {
				var re RecordError
				if !errors.As(pw.Err, &re) {
					t.Fatalf("unexpected non-record error: %v", pw.Err)
				}
				failed++
			}
		}
	}
	if windows, failed := run(true); windows != total/window || failed == 0 {
		t.Errorf("resilient: %d windows (%d failed), want all %d with failures", windows, failed, total/window)
	}
	if windows, failed := run(false); failed != 1 || windows > total/window-1 {
		t.Errorf("strict: %d windows (%d failed), want to stop at the first failure", windows, failed)
	}
}
