package pipeline

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/reads"
	"gsnp/internal/snpio"
)

// fakeKernel records what the driver asks of a kernel. Its Window writes
// one row per site, so the sink sees real traffic.
type fakeKernel struct {
	st        *RunState
	prepared  int
	finished  int
	windows   []int // window indexes that reached Window, in call order
	abandoned []int
	panicAt   int // window index whose Window panics (-1: none)
	// check, when non-nil, inspects every window's reads.
	check func(st *RunState, rs []reads.AlignedRead, start, end int)
}

func (k *fakeKernel) Prepare(st *RunState) error {
	k.st = st
	k.prepared++
	return nil
}

func (k *fakeKernel) Window(rs []reads.AlignedRead, start, end int) error {
	win := start / k.st.Window
	k.windows = append(k.windows, win)
	if win == k.panicAt {
		panic("fake kernel panic")
	}
	if k.check != nil {
		k.check(k.st, rs, start, end)
	}
	rows := make([]snpio.Row, end-start)
	for i := range rows {
		rows[i] = snpio.Row{Chr: k.st.Chr, Pos: int64(start + i + 1), Ref: 'A', Genotype: 'A', BestBase: 'A', SecondBase: 'N'}
	}
	return k.st.Out.WriteBlock(rows)
}

func (k *fakeKernel) Abandon(start, end int) {
	k.abandoned = append(k.abandoned, start/k.st.Window)
}

func (k *fakeKernel) Finish() { k.finished++ }

// passSource serves a different iterator per pass: pass one is the
// calibration pass, pass two the windowed one.
type passSource struct {
	opens int
	open  func(pass int) ReadIter
}

func (s *passSource) Open() (ReadIter, error) {
	s.opens++
	return s.open(s.opens), nil
}

// faultIter replaces the at-th record (0-based) of the stream with err.
type faultIter struct {
	it    ReadIter
	n, at int
	err   error
}

func (f *faultIter) Next() (reads.AlignedRead, error) {
	r, err := f.it.Next()
	if err == nil && f.n == f.at {
		r, err = reads.AlignedRead{}, f.err
	}
	f.n++
	return r, err
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestRunDriver exercises every driver decision once, against a fake
// kernel: 40 sites in four windows of ten, two 5 bp reads per window.
// Record 3 (at site 15) lies in window 1 and is pulled while window 1 is
// fetched.
func TestRunDriver(t *testing.T) {
	var input []reads.AlignedRead
	for pos := 0; pos < 40; pos += 5 {
		input = append(input, mkRead(pos, 5))
	}
	recErr := &flakyRecordError{line: 4}
	ioErr := errors.New("read: input/output error")
	all := []int{0, 1, 2, 3}

	type want struct {
		fail        bool  // the run returns an error (or panics)
		windows     []int // windows that reached Kernel.Window
		quarantined []int
		calSkipped  int
		prepared    int
	}
	cases := []struct {
		name string
		// fault arms the case: it may wrap a pass's iterator, set a hook,
		// arm the kernel or replace the writer.
		pass    func(pass int, it ReadIter) ReadIter
		hook    func(cancel context.CancelFunc) func(ctx context.Context, window, start, end int) error
		panicAt int
		writer  io.Writer
		off, on want // expectation with quarantine off / on
	}{
		{
			name:    "clean",
			panicAt: -1,
			off:     want{windows: all, prepared: 1},
			on:      want{windows: all, prepared: 1},
		},
		{
			name: "record error in pass one",
			pass: func(pass int, it ReadIter) ReadIter {
				if pass == 1 {
					return &faultIter{it: it, at: 3, err: recErr}
				}
				return it
			},
			panicAt: -1,
			off:     want{fail: true},
			on:      want{windows: all, calSkipped: 1, prepared: 1},
		},
		{
			name: "record error in pass two",
			pass: func(pass int, it ReadIter) ReadIter {
				if pass == 2 {
					return &faultIter{it: it, at: 3, err: recErr}
				}
				return it
			},
			panicAt: -1,
			off:     want{fail: true, windows: []int{0}, prepared: 1},
			on:      want{windows: []int{0, 2, 3}, quarantined: []int{1}, prepared: 1},
		},
		{
			name:    "kernel panic",
			panicAt: 2,
			off:     want{fail: true, windows: []int{0, 1, 2}, prepared: 1},
			on:      want{windows: all, quarantined: []int{2}, prepared: 1},
		},
		{
			name: "hook error",
			hook: func(context.CancelFunc) func(context.Context, int, int, int) error {
				return func(_ context.Context, window, _, _ int) error {
					if window == 1 {
						return errors.New("hook says no")
					}
					return nil
				}
			},
			panicAt: -1,
			off:     want{fail: true, windows: []int{0}, prepared: 1},
			on:      want{fail: true, windows: []int{0}, prepared: 1},
		},
		{
			name: "I/O error",
			pass: func(pass int, it ReadIter) ReadIter {
				if pass == 2 {
					return &faultIter{it: it, at: 3, err: ioErr}
				}
				return it
			},
			panicAt: -1,
			off:     want{fail: true, windows: []int{0}, prepared: 1},
			on:      want{fail: true, windows: []int{0}, prepared: 1},
		},
		{
			name:    "sink write error",
			writer:  failWriter{},
			panicAt: -1,
			off:     want{fail: true, windows: all, prepared: 1},
			on:      want{fail: true, windows: all, prepared: 1},
		},
		{
			name: "cancelled ctx",
			hook: func(cancel context.CancelFunc) func(context.Context, int, int, int) error {
				return func(_ context.Context, window, _, _ int) error {
					if window == 1 {
						cancel() // noticed at the next window boundary
					}
					return nil
				}
			},
			panicAt: -1,
			off:     want{fail: true, windows: []int{0, 1}, prepared: 1},
			on:      want{fail: true, windows: []int{0, 1}, prepared: 1},
		},
	}
	for _, tc := range cases {
		for _, prefetch := range []bool{false, true} {
			for _, quarantine := range []bool{false, true} {
				tc, w := tc, tc.off
				if quarantine {
					w = tc.on
				}
				t.Run(fmt.Sprintf("%s/prefetch=%t/quarantine=%t", tc.name, prefetch, quarantine), func(t *testing.T) {
					goroutines := runtime.NumGoroutine()
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					src := &passSource{open: func(pass int) ReadIter {
						it, _ := MemSource(input).Open()
						if tc.pass != nil {
							it = tc.pass(pass, it)
						}
						return it
					}}
					cfg := Config{Chr: "chrF", Ref: make(dna.Sequence, 40), Window: 10, Prefetch: prefetch, Quarantine: quarantine}
					if tc.hook != nil {
						cfg.WindowHook = tc.hook(cancel)
					}
					var out io.Writer = &bytes.Buffer{}
					if tc.writer != nil {
						out = tc.writer
					}
					k := &fakeKernel{panicAt: tc.panicAt}

					var rep *Report
					var err error
					func() {
						defer func() {
							if v := recover(); v != nil {
								err = fmt.Errorf("panicked: %v", v)
							}
						}()
						rep, err = Run(ctx, cfg, src, out, k)
					}()

					if (err != nil) != w.fail {
						t.Fatalf("err = %v, want failure %t", err, w.fail)
					}
					if w.fail && rep != nil {
						t.Error("failed run returned a report")
					}
					if k.finished != 1 {
						t.Errorf("Finish ran %d times, want exactly once", k.finished)
					}
					if k.prepared != w.prepared {
						t.Errorf("Prepare ran %d times, want %d", k.prepared, w.prepared)
					}
					if !reflect.DeepEqual(k.windows, w.windows) {
						t.Errorf("windows reaching Window = %v, want %v", k.windows, w.windows)
					}
					// Abandon follows every contained failure, and only those.
					if !reflect.DeepEqual(k.abandoned, w.quarantined) {
						t.Errorf("abandoned windows = %v, want %v", k.abandoned, w.quarantined)
					}
					if !w.fail {
						var got []int
						for _, q := range rep.Quarantined {
							got = append(got, q.Window)
							if q.Chr != "chrF" || q.Start != q.Window*10 || q.End != q.Start+10 {
								t.Errorf("quarantine record %+v has the wrong site range", q)
							}
						}
						if !reflect.DeepEqual(got, w.quarantined) {
							t.Errorf("Report.Quarantined windows = %v, want %v", got, w.quarantined)
						}
						if rep.CalSkipped != w.calSkipped {
							t.Errorf("CalSkipped = %d, want %d", rep.CalSkipped, w.calSkipped)
						}
						if rep.Partial() != (len(w.quarantined) > 0 || w.calSkipped > 0) {
							t.Errorf("Partial() = %t", rep.Partial())
						}
						buf := out.(*bytes.Buffer)
						if rep.OutputBytes != int64(buf.Len()) || buf.Len() == 0 {
							t.Errorf("OutputBytes = %d, sink holds %d bytes", rep.OutputBytes, buf.Len())
						}
						if prefetch && rep.Prefetch.Windows != 4 {
							t.Errorf("prefetcher delivered %d windows, want 4", rep.Prefetch.Windows)
						}
					}
					// The prefetcher's producer must be gone when Run returns.
					deadline := time.Now().Add(5 * time.Second)
					for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
						time.Sleep(time.Millisecond)
					}
					if n := runtime.NumGoroutine(); n > goroutines {
						t.Errorf("%d goroutines after Run, %d before: prefetcher leaked", n, goroutines)
					}
				})
			}
		}
	}
}

// TestRunFinishesAfterFailedCalibration: Finish runs even when the run never
// reached Prepare, and a window count of zero is rejected up front.
func TestRunFinishesAfterFailedCalibration(t *testing.T) {
	k := &fakeKernel{panicAt: -1}
	src := FuncSource(func() (ReadIter, error) { return nil, errors.New("no such file") })
	if _, err := Run(context.Background(), Config{Ref: make(dna.Sequence, 10), Window: 5}, src, io.Discard, k); err == nil {
		t.Fatal("unopenable source accepted")
	}
	if k.prepared != 0 || k.finished != 1 {
		t.Errorf("Prepare ran %d times, Finish %d times; want 0 and 1", k.prepared, k.finished)
	}
	k = &fakeKernel{panicAt: -1}
	if _, err := Run(context.Background(), Config{Ref: make(dna.Sequence, 10)}, MemSource(nil), io.Discard, k); err == nil {
		t.Fatal("zero window accepted")
	}
	if k.finished != 1 {
		t.Errorf("Finish ran %d times after a rejected config, want 1", k.finished)
	}
}

// TestRunStride pins the stride rule: the historical 100 for reads no longer
// than that, the longest read of the calibration pass above it, and never
// more than the model's 256 coordinates — a read longer than that keeps
// losing its cycles >= bayes.MaxReadLen to ObsOf, so every coordinate a
// kernel sees is below the stride.
func TestRunStride(t *testing.T) {
	for _, tc := range []struct{ readLen, stride, dropped int }{
		{36, 100, 0}, {100, 100, 0}, {101, 101, 0}, {150, 150, 0}, {256, 256, 0}, {300, 256, 44},
	} {
		input := []reads.AlignedRead{mkRead(10, tc.readLen), mkRead(20, 36)}
		input[0].Strand = 1 // cycles run from readLen-1 down
		dropped := 0
		k := &fakeKernel{panicAt: -1, check: func(st *RunState, rs []reads.AlignedRead, start, end int) {
			for i := range rs {
				for pos := max(start, rs[i].Pos); pos < min(end, rs[i].Pos+len(rs[i].Bases)); pos++ {
					o, ok := ObsOf(&rs[i], pos)
					if !ok {
						dropped++
					} else if int(o.Coord) >= st.Stride {
						t.Errorf("read length %d: coordinate %d at stride %d", tc.readLen, o.Coord, st.Stride)
					}
				}
			}
		}}
		cfg := Config{Ref: make(dna.Sequence, 400), Window: 400}
		if _, err := Run(context.Background(), cfg, MemSource(input), io.Discard, k); err != nil {
			t.Fatalf("read length %d: %v", tc.readLen, err)
		}
		if k.st.Stride != tc.stride {
			t.Errorf("read length %d: stride %d, want %d", tc.readLen, k.st.Stride, tc.stride)
		}
		if dropped != tc.dropped {
			t.Errorf("read length %d: ObsOf dropped %d observations, want %d", tc.readLen, dropped, tc.dropped)
		}
		if k.st.Priors != bayes.DefaultPriors() {
			t.Error("zero Priors not defaulted")
		}
	}
}

// TestRunLongerReadInPassTwo: a read longer than the stride turning up in
// pass two only is a record-scoped error for its window — the run fails with
// it, or quarantines the window — never an out-of-range index in a kernel.
func TestRunLongerReadInPassTwo(t *testing.T) {
	short := []reads.AlignedRead{mkRead(2, 50), mkRead(12, 50), mkRead(112, 50)}
	long := []reads.AlignedRead{mkRead(2, 50), mkRead(12, 150), mkRead(112, 50)}
	newSrc := func() Source {
		return &passSource{open: func(pass int) ReadIter {
			it, _ := MemSource(short).Open()
			if pass == 2 {
				it, _ = MemSource(long).Open()
			}
			return it
		}}
	}
	noLong := func(st *RunState, rs []reads.AlignedRead, _, _ int) {
		for i := range rs {
			if len(rs[i].Bases) > st.Stride {
				t.Errorf("a %d bp read reached the kernel at stride %d", len(rs[i].Bases), st.Stride)
			}
		}
	}
	cfg := Config{Chr: "chrL", Ref: make(dna.Sequence, 200), Window: 100}

	_, err := Run(context.Background(), cfg, newSrc(), io.Discard, &fakeKernel{panicAt: -1, check: noLong})
	var le *ReadLengthError
	if !errors.As(err, &le) || le.Len != 150 || le.Stride != MinStride {
		t.Fatalf("err = %v, want a ReadLengthError for the 150 bp read at stride %d", err, MinStride)
	}

	cfg.Quarantine = true
	k := &fakeKernel{panicAt: -1, check: noLong}
	rep, err := Run(context.Background(), cfg, newSrc(), io.Discard, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Window != 0 || !reflect.DeepEqual(k.windows, []int{1}) {
		t.Errorf("quarantined %v, windows run %v; want window 0 quarantined and window 1 run", rep.Quarantined, k.windows)
	}
}
