package soapsnp

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"gsnp/internal/par"
	"gsnp/internal/pipeline"
)

// withoutWindow drops the result rows of sites [start, end).
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

// TestQuarantineWindowPanic checks the dense engine's panic containment: a
// panicking window is quarantined, its half-filled dense state is recycled
// (so later windows see clean buffers), and every surviving window is
// byte-identical to the clean run. Threads > 1 exercises the
// likelihoodParallel panic trap alongside.
func TestQuarantineWindowPanic(t *testing.T) {
	ds := testDataset(t, 3000, 8, 17)
	const window = 1000
	var cleanBuf bytes.Buffer
	if _, err := startRun(context.Background(), New(Config{}), ds, pipeline.Config{Window: window}, &cleanBuf); err != nil {
		t.Fatal(err)
	}

	for _, threads := range []int{1, 4} {
		run := pipeline.Config{
			Window: window, Quarantine: true,
			WindowHook: func(ctx context.Context, win, start, end int) error {
				if win == 1 {
					panic("injected window panic")
				}
				return nil
			},
		}
		var buf bytes.Buffer
		rep, err := startRun(context.Background(), New(Config{Threads: threads}), ds, run, &buf)
		if err != nil {
			t.Fatalf("threads=%d: %v", threads, err)
		}
		if len(rep.Quarantined) != 1 || !rep.Partial() {
			t.Fatalf("threads=%d: quarantined = %v, want exactly window 1", threads, rep.Quarantined)
		}
		if q := rep.Quarantined[0]; q.Window != 1 || !q.Panicked {
			t.Errorf("threads=%d: quarantine = %+v, want window 1 panicked", threads, q)
		}
		if want := withoutWindow(t, cleanBuf.Bytes(), window, 2*window); !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("threads=%d: surviving windows are not byte-identical to the clean run", threads)
		}
	}
}

// TestLikelihoodParallelTrapsPanic checks that a panic inside a likelihood
// worker goroutine is re-raised on the dispatching goroutine (instead of
// crashing the process) after every worker has drained. A nil tables
// pointer makes the first non-zero site panic inside DenseLikelihood.
func TestLikelihoodParallelTrapsPanic(t *testing.T) {
	eng := New(Config{Threads: 4})
	eng.allocWindow(8, 4)
	eng.baseOcc[0] = 1 // site 0 has coverage; the tables are unbuilt => panic
	rep := &pipeline.Report{NonZeroHist: make([]int64, pipeline.SparsityHistSize)}
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("worker panic was not re-raised")
		}
		pe, ok := v.(*par.PanicError)
		if !ok {
			t.Fatalf("re-raised value is %T, want *par.PanicError", v)
		}
		if len(pe.Stack) == 0 {
			t.Error("re-raised panic carries no stack")
		}
	}()
	eng.likelihoodParallel(8, rep)
}

// TestRunContextCancelled checks cooperative cancellation on the baseline
// engine.
func TestRunContextCancelled(t *testing.T) {
	ds := testDataset(t, 2000, 6, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := startRun(ctx, New(Config{}), ds, pipeline.Config{Window: 500}, &bytes.Buffer{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
