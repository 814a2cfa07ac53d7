package gsnp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"gsnp/internal/gpu"
	"gsnp/internal/par"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
)

// testRecordError is a synthetic record-scoped parse failure.
type testRecordError struct{ line int }

func (e *testRecordError) Error() string {
	return fmt.Sprintf("test: corrupt record %d", e.line)
}
func (e *testRecordError) Record() (int, int64) { return e.line, -1 }

// corruptSource makes the at-th record (1-based) of every pass come back
// as a record error, the record itself dropped — the shape of a corrupt
// line in an alignment file.
func corruptSource(src pipeline.Source, at int) pipeline.Source {
	return pipeline.FuncSource(func() (pipeline.ReadIter, error) {
		it, err := src.Open()
		if err != nil {
			return nil, err
		}
		return &corruptIter{it: it, at: at}, nil
	})
}

type corruptIter struct {
	it    pipeline.ReadIter
	n, at int
}

func (c *corruptIter) Next() (reads.AlignedRead, error) {
	r, err := c.it.Next()
	if err != nil {
		return r, err
	}
	if c.n++; c.n == c.at {
		return reads.AlignedRead{}, &testRecordError{line: c.n}
	}
	return r, nil
}

// withoutWindow drops the result rows of sites [start, end) — what a run
// that quarantined exactly that window should emit.
func withoutWindow(t *testing.T, out []byte, start, end int) []byte {
	t.Helper()
	var keep bytes.Buffer
	for _, line := range strings.SplitAfter(string(out), "\n") {
		if line == "" {
			continue
		}
		f := strings.SplitN(line, "\t", 3)
		if len(f) < 2 {
			t.Fatalf("unparseable result line %q", line)
		}
		pos, err := strconv.Atoi(f[1])
		if err != nil {
			t.Fatalf("bad pos in %q: %v", line, err)
		}
		if p := pos - 1; p >= start && p < end {
			continue
		}
		keep.WriteString(line)
	}
	return keep.Bytes()
}

// TestQuarantineWindowPanic checks panic containment end to end: a window
// whose computation panics is quarantined, the run completes, and every
// other window's bytes are untouched.
func TestQuarantineWindowPanic(t *testing.T) {
	ds := testDataset(t, 3000, 8, 21)
	const window = 1000
	_, clean := runGSNP(t, ds, pipeline.Config{Window: window}, Config{Mode: ModeCPU})

	for _, workers := range []int{0, 4} {
		run := pipeline.Config{
			Window:     window,
			Quarantine: true,
			WindowHook: func(ctx context.Context, win, start, end int) error {
				if win == 1 {
					panic("injected window panic")
				}
				return nil
			},
		}
		rep, out := runGSNP(t, ds, run, Config{Mode: ModeCPU, ComputeWorkers: workers})
		if len(rep.Quarantined) != 1 {
			t.Fatalf("workers=%d: %d quarantined windows, want 1: %v", workers, len(rep.Quarantined), rep.Quarantined)
		}
		q := rep.Quarantined[0]
		if q.Window != 1 || q.Start != window || q.End != 2*window || !q.Panicked {
			t.Errorf("workers=%d: quarantine = %+v, want window 1 [1000,2000) panicked", workers, q)
		}
		if !strings.Contains(q.Cause, "injected window panic") {
			t.Errorf("workers=%d: cause %q misses the panic value", workers, q.Cause)
		}
		if !rep.Partial() {
			t.Errorf("workers=%d: Partial() = false for a degraded run", workers)
		}
		if want := withoutWindow(t, clean, window, 2*window); !bytes.Equal(out, want) {
			t.Errorf("workers=%d: surviving windows are not byte-identical to the clean run", workers)
		}
	}
}

// TestQuarantineWithoutFlagPanics confirms containment is opt-in: without
// Config.Quarantine an injected window panic propagates.
func TestQuarantineWithoutFlagPanics(t *testing.T) {
	ds := testDataset(t, 2000, 6, 3)
	eng, err := New(Config{Mode: ModeCPU})
	if err != nil {
		t.Fatal(err)
	}
	run := pipeline.Config{
		Window: 1000,
		WindowHook: func(ctx context.Context, win, start, end int) error {
			if win == 1 {
				panic("unrecovered")
			}
			return nil
		},
	}
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate without Quarantine")
		}
	}()
	startRun(context.Background(), eng, ds, run, pipeline.MemSource(ds.Reads), &bytes.Buffer{})
}

// TestQuarantineCorruptRecord checks record-level containment: the
// calibration pass skips the bad record, the windowed pass quarantines the
// window it lands in, the run completes.
func TestQuarantineCorruptRecord(t *testing.T) {
	ds := testDataset(t, 3000, 8, 21)
	const window, at = 1000, 40
	src := corruptSource(pipeline.MemSource(ds.Reads), at)

	// Without quarantine the same input aborts the run.
	strict, err := New(Config{Mode: ModeCPU})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := startRun(context.Background(), strict, ds, pipeline.Config{Window: window}, src, &bytes.Buffer{}); err == nil {
		t.Fatal("corrupt record accepted without Quarantine")
	}

	eng, err := New(Config{Mode: ModeCPU})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := startRun(context.Background(), eng, ds, pipeline.Config{Window: window, Quarantine: true}, src, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CalSkipped != 1 {
		t.Errorf("CalSkipped = %d, want 1", rep.CalSkipped)
	}
	if len(rep.Quarantined) != 1 {
		t.Fatalf("%d quarantined windows, want 1: %v", len(rep.Quarantined), rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Line != at || q.Panicked {
		t.Errorf("quarantine = %+v, want line %d, no panic", q, at)
	}
	wantWin := ds.Reads[at-1].Pos / window
	if q.Window != wantWin {
		t.Errorf("quarantined window %d, record %d lies in window %d", q.Window, at, wantWin)
	}
}

// TestDeviceMemoryReleasedOnEveryExit: the device tables and the dep_count
// buffer are freed however the run ends — a failed run used to return with
// 7.9 MB still allocated and the next run on the engine overwrote the
// handles. The same engine then completes a clean run.
func TestDeviceMemoryReleasedOnEveryExit(t *testing.T) {
	ds := testDataset(t, 3000, 8, 21)
	_, clean := runGSNP(t, ds, pipeline.Config{Window: 1000}, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})

	for _, tc := range []struct {
		name       string
		quarantine bool
		hook       func(cancel context.CancelFunc) func(ctx context.Context, win, start, end int) error
		wantErr    bool
	}{
		{"failed", false, func(context.CancelFunc) func(context.Context, int, int, int) error {
			return func(_ context.Context, win, _, _ int) error {
				if win == 1 {
					return errors.New("injected window failure")
				}
				return nil
			}
		}, true},
		{"cancelled", true, func(cancel context.CancelFunc) func(context.Context, int, int, int) error {
			return func(_ context.Context, win, _, _ int) error {
				if win == 1 {
					cancel()
				}
				return nil
			}
		}, true},
		{"quarantined", true, func(context.CancelFunc) func(context.Context, int, int, int) error {
			return func(_ context.Context, win, _, _ int) error {
				if win == 1 {
					panic("injected window panic")
				}
				return nil
			}
		}, false},
	} {
		dev := gpu.NewDevice(gpu.M2050())
		before := dev.AllocatedBytes()
		ctx, cancel := context.WithCancel(context.Background())
		armed := true
		hook := tc.hook(cancel)
		eng, err := New(Config{Mode: ModeGPU, Device: dev})
		if err != nil {
			t.Fatal(err)
		}
		run := pipeline.Config{
			Window: 1000, Quarantine: tc.quarantine,
			WindowHook: func(ctx context.Context, win, start, end int) error {
				if !armed {
					return nil
				}
				return hook(ctx, win, start, end)
			},
		}
		rep, err := startRun(ctx, eng, ds, run, pipeline.MemSource(ds.Reads), &bytes.Buffer{})
		cancel()
		if (err != nil) != tc.wantErr {
			t.Fatalf("%s: err = %v, want failure %t", tc.name, err, tc.wantErr)
		}
		if err == nil && len(rep.Quarantined) != 1 {
			t.Errorf("%s: %d windows quarantined, want 1", tc.name, len(rep.Quarantined))
		}
		if got := dev.AllocatedBytes(); got != before {
			t.Errorf("%s: %d bytes still allocated on the device after the run, %d before it", tc.name, got, before)
		}
		armed = false
		var buf bytes.Buffer
		if _, err := startRun(context.Background(), eng, ds, run, pipeline.MemSource(ds.Reads), &buf); err != nil || !bytes.Equal(buf.Bytes(), clean) {
			t.Errorf("%s: the engine's next run: err = %v, output identical to a fresh engine's = %t", tc.name, err, bytes.Equal(buf.Bytes(), clean))
		}
		if got := dev.AllocatedBytes(); got != before {
			t.Errorf("%s: %d bytes allocated after the follow-up run, %d before", tc.name, got, before)
		}
	}
}

// TestShardPanicSurfacesOnWindowGoroutine checks panic transport at the
// level that matters to quarantine: a panic on a helper shard of a real
// window's posterior pass (the reference is cut short, so only the last
// shard's sites index past it) comes out of Window on the calling goroutine
// as a *par.PanicError with the shard's stack — where the driver's window
// containment recovers it — and the arena's join is fit for the next
// window. (internal/par's own tests cover the fork-join itself.)
func TestShardPanicSurfacesOnWindowGoroutine(t *testing.T) {
	ds := testDataset(t, 2400, 8, 77)
	cfg := Config{Mode: ModeCPU, SortWorkers: 1, ComputeWorkers: 4, forceShardWorkers: 4}
	eng, wins := newDirectEngine(t, ds, 800, cfg)
	var out bytes.Buffer
	eng.run = directRun(ds, 800, &out)
	dw := wins[1]

	ref := eng.run.Ref
	eng.run.Ref = ref[:dw.end-10]
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		eng.Window(dw.rs, dw.start, dw.end)
	}()
	pe, ok := recovered.(*par.PanicError)
	if !ok {
		t.Fatalf("Window re-raised %T (%v), want *par.PanicError", recovered, recovered)
	}
	if !strings.Contains(string(pe.Stack), "posteriorRange") {
		t.Errorf("stack is not the panicking shard's:\n%s", pe.Stack)
	}
	if !pipeline.Containable(pe) {
		t.Error("a shard panic is not containable by the window quarantine")
	}

	eng.run.Ref = ref
	out.Reset()
	if err := eng.Window(dw.rs, dw.start, dw.end); err != nil {
		t.Fatal(err)
	}
	if err := eng.run.Out.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh, _ := newDirectEngine(t, ds, 800, cfg)
	var want bytes.Buffer
	fresh.run = directRun(ds, 800, &want)
	if err := fresh.Window(dw.rs, dw.start, dw.end); err != nil {
		t.Fatal(err)
	}
	if err := fresh.run.Out.Flush(); err != nil {
		t.Fatal(err)
	}
	if want.Len() == 0 || !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Error("the window after a shard panic differs from a fresh engine's")
	}
}

// TestRunContextCancelled checks cooperative cancellation: an
// already-cancelled context aborts the run with the context's error, and
// quarantine never swallows cancellation.
func TestRunContextCancelled(t *testing.T) {
	ds := testDataset(t, 2000, 6, 9)
	eng, err := New(Config{Mode: ModeCPU})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := startRun(ctx, eng, ds, pipeline.Config{Window: 500, Quarantine: true}, pipeline.MemSource(ds.Reads), &bytes.Buffer{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Error("cancelled run returned a report")
	}
}
