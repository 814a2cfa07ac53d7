package pipeline

import (
	"errors"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/reads"
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
		got, err := w.AppendReads(nil, win*100, (win+1)*100)
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
	if got, err := w.AppendReads(nil, 0, 100); err != nil || len(got) != 1 {
		t.Fatalf("window 0: %v reads, err %v", len(got), err)
	}
	for win := 1; win < 4; win++ {
		got, err := w.AppendReads(nil, win*100, (win+1)*100)
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
	w0, err := w.AppendReads(nil, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(w0) != 2 {
		t.Fatalf("window 0 has %d reads, want 2 (pos 90, 91)", len(w0))
	}
	w1, err := w.AppendReads(nil, 100, 200)
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

// TestWindowerRefusesOutOfOrderRead: a read that starts before the read
// pulled ahead of it is an *OrderError (a RecordError, so quarantine can
// contain it) naming the read; the stream stays usable past it, and reads
// at equal positions are in order.
func TestWindowerRefusesOutOfOrderRead(t *testing.T) {
	rs := []reads.AlignedRead{mkRead(10, 5), mkRead(10, 5), mkRead(150, 5), mkRead(20, 5), mkRead(160, 5)}
	rs[3].ID = 4
	it, _ := MemSource(rs).Open()
	w := NewWindower(it)
	if got, err := w.AppendReads(nil, 0, 100); err != nil || len(got) != 2 {
		t.Fatalf("window 0: %d reads, err %v; want 2, nil", len(got), err)
	}
	_, err := w.AppendReads(nil, 100, 200)
	var oe *OrderError
	if !errors.As(err, &oe) || oe.ID != 4 || oe.Pos != 20 || oe.Prev != 150 {
		t.Fatalf("window 1: err %v, want an OrderError for read 4 at 20 after 150", err)
	}
	var re RecordError = oe
	if !Containable(re) {
		t.Error("an OrderError is not containable by quarantine")
	}
	if got, err := w.AppendReads(nil, 200, 300); err != nil || len(got) != 0 {
		t.Errorf("window 2 after the refused read: %d reads, err %v; want 0, nil", len(got), err)
	}
}
