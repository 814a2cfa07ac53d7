package pipeline

import (
	"errors"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/reads"
	"gsnp/internal/seqsim"
)

func mkRead(pos, n int) reads.AlignedRead {
	return reads.AlignedRead{Pos: pos, Bases: make(dna.Sequence, n), Quals: make([]dna.Quality, n)}
}

// TestWindowerLongRead checks a read spanning more than two windows: it
// must be visible to every window it overlaps and only those.
func TestWindowerLongRead(t *testing.T) {
	// [95, 345) overlaps windows 0-3 of size 100; window 4 starts at 400.
	rs := []reads.AlignedRead{mkRead(95, 250)}
	it, _ := MemSource(rs).Open()
	w := NewWindower(it)
	for win := 0; win < 5; win++ {
		got, err := w.Reads(win*100, (win+1)*100)
		if err != nil {
			t.Fatal(err)
		}
		want := 1
		if win == 4 {
			want = 0
		}
		if len(got) != want {
			t.Errorf("window %d: %d reads, want %d", win, len(got), want)
		}
	}
}

// TestWindowerEmptyTrailingWindow checks that windows past the last read
// come back empty without error, including several in a row.
func TestWindowerEmptyTrailingWindow(t *testing.T) {
	rs := []reads.AlignedRead{mkRead(10, 20)}
	it, _ := MemSource(rs).Open()
	w := NewWindower(it)
	if got, err := w.Reads(0, 100); err != nil || len(got) != 1 {
		t.Fatalf("window 0: %v reads, err %v", len(got), err)
	}
	for win := 1; win < 4; win++ {
		got, err := w.Reads(win*100, (win+1)*100)
		if err != nil || len(got) != 0 {
			t.Errorf("trailing window %d: %d reads, err %v; want empty", win, len(got), err)
		}
	}
}

// TestWindowerAbuttingBoundary checks the half-open interval arithmetic: a
// read whose end exactly meets a window boundary (Pos+len == end) belongs
// to that window only and must not be carried into the next.
func TestWindowerAbuttingBoundary(t *testing.T) {
	rs := []reads.AlignedRead{
		mkRead(90, 10),  // [90, 100): ends exactly at the boundary
		mkRead(91, 10),  // [91, 101): spans into the next window
		mkRead(100, 10), // [100, 110): starts exactly at the boundary
	}
	it, _ := MemSource(rs).Open()
	w := NewWindower(it)
	w0, err := w.Reads(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(w0) != 2 {
		t.Fatalf("window 0 has %d reads, want 2 (pos 90, 91)", len(w0))
	}
	w1, err := w.Reads(100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1) != 2 {
		t.Fatalf("window 1 has %d reads, want 2 (pos 91, 100): %+v", len(w1), w1)
	}
	for _, r := range w1 {
		if r.Pos == 90 {
			t.Error("read ending exactly at the boundary leaked into the next window")
		}
	}
}

// errAfterIter yields n reads then a non-EOF error.
type errAfterIter struct {
	n   int
	err error
}

func (it *errAfterIter) Next() (reads.AlignedRead, error) {
	if it.n == 0 {
		return reads.AlignedRead{}, it.err
	}
	it.n--
	return mkRead(0, 5), nil
}

// TestWindowPrefetcherMatchesSerial runs the same dataset through a serial
// Windower and through the prefetcher and requires identical windows — the
// property that makes prefetch safe under the byte-identity requirement.
func TestWindowPrefetcherMatchesSerial(t *testing.T) {
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{Name: "t", Length: 5000, Depth: 6, Seed: 9})
	const total, window = 5000, 333

	it1, _ := MemSource(ds.Reads).Open()
	serial := NewWindower(it1)
	var want [][]reads.AlignedRead
	for start := 0; start < total; start += window {
		end := start + window
		if end > total {
			end = total
		}
		rs, err := serial.Reads(start, end)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rs)
	}

	it2, _ := MemSource(ds.Reads).Open()
	pf := NewWindowPrefetcher(NewWindower(it2), total, window, false)
	defer pf.Stop()
	i := 0
	for {
		pw, ok := pf.Next()
		if !ok {
			break
		}
		if pw.Err != nil {
			t.Fatal(pw.Err)
		}
		if i >= len(want) {
			t.Fatalf("prefetcher delivered %d windows, serial loop had %d", i+1, len(want))
		}
		if wantStart := i * window; pw.Start != wantStart {
			t.Fatalf("window %d start = %d, want %d (out of order?)", i, pw.Start, wantStart)
		}
		if len(pw.Reads) != len(want[i]) {
			t.Fatalf("window %d: %d reads, serial had %d", i, len(pw.Reads), len(want[i]))
		}
		for k := range pw.Reads {
			if pw.Reads[k].Pos != want[i][k].Pos || pw.Reads[k].ID != want[i][k].ID {
				t.Fatalf("window %d read %d differs from serial", i, k)
			}
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("prefetcher delivered %d windows, want %d", i, len(want))
	}
	if st := pf.Stats(); st.Windows != len(want) {
		t.Errorf("Stats().Windows = %d, want %d", st.Windows, len(want))
	}
}

// TestWindowPrefetcherError checks a read error is delivered in-order and
// terminates the stream.
func TestWindowPrefetcherError(t *testing.T) {
	boom := errors.New("boom")
	it := &errAfterIter{n: 2, err: boom}
	pf := NewWindowPrefetcher(NewWindower(it), 1000, 100, false)
	defer pf.Stop()
	pw, ok := pf.Next()
	if !ok {
		t.Fatal("prefetcher closed before delivering the error")
	}
	if !errors.Is(pw.Err, boom) {
		t.Fatalf("window error = %v, want boom", pw.Err)
	}
	if _, ok := pf.Next(); ok {
		t.Error("prefetcher kept producing after an error")
	}
}

// TestWindowPrefetcherStop stops mid-stream; the producer must unblock and
// further Next calls must report exhaustion.
func TestWindowPrefetcherStop(t *testing.T) {
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{Name: "t", Length: 5000, Depth: 6, Seed: 9})
	it, _ := MemSource(ds.Reads).Open()
	pf := NewWindowPrefetcher(NewWindower(it), 5000, 100, false)
	if _, ok := pf.Next(); !ok {
		t.Fatal("first window missing")
	}
	pf.Stop()
	pf.Stop() // idempotent
	if _, ok := pf.Next(); ok {
		t.Error("Next returned a window after Stop")
	}
}
