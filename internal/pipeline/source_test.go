package pipeline

import (
	"errors"
	"io"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/reads"
)

func TestFuncSource(t *testing.T) {
	opens := 0
	src := FuncSource(func() (ReadIter, error) {
		opens++
		it, _ := MemSource([]reads.AlignedRead{{ID: 1}}).Open()
		return it, nil
	})
	for pass := 0; pass < 2; pass++ {
		it, err := src.Open()
		if err != nil {
			t.Fatal(err)
		}
		if r, err := it.Next(); err != nil || r.ID != 1 {
			t.Fatalf("pass %d: %v %v", pass, r, err)
		}
		if _, err := it.Next(); err != io.EOF {
			t.Fatalf("pass %d: want EOF", pass)
		}
	}
	if opens != 2 {
		t.Errorf("source opened %d times, want 2", opens)
	}
}

func TestFuncSourceError(t *testing.T) {
	boom := errors.New("boom")
	src := FuncSource(func() (ReadIter, error) { return nil, boom })
	if _, err := src.Open(); err != boom {
		t.Errorf("error not propagated: %v", err)
	}
}

type failIter struct{ n int }

func (f *failIter) Next() (reads.AlignedRead, error) {
	f.n++
	if f.n > 2 {
		return reads.AlignedRead{}, errors.New("read error")
	}
	return reads.AlignedRead{Pos: f.n * 10, Bases: make(dna.Sequence, 5), Quals: make([]dna.Quality, 5)}, nil
}

func TestWindowerPropagatesReadErrors(t *testing.T) {
	w := NewWindower(&failIter{})
	if _, err := w.AppendReads(nil, 0, 1000); err == nil {
		t.Error("iterator error swallowed")
	}
}

func TestCalibrationPassSinkError(t *testing.T) {
	ds := []reads.AlignedRead{{Pos: 0, Bases: make(dna.Sequence, 4), Quals: make([]dna.Quality, 4)}}
	boom := errors.New("sink failed")
	_, _, err := CalibrationPass(MemSource(ds), make(dna.Sequence, 100), func(*reads.AlignedRead) error { return boom })
	if err == nil {
		t.Error("sink error swallowed")
	}
}

func TestCalibrationPassEmptyRef(t *testing.T) {
	cal, mean, err := CalibrationPass(MemSource(nil), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mean != 0 || cal.Observations() != 0 {
		t.Errorf("empty reference produced mean %v, obs %d", mean, cal.Observations())
	}
}

func TestObsOfClampsOversizedCoord(t *testing.T) {
	// Reads longer than the model's MaxReadLen produce no observation
	// beyond the representable coordinate.
	r := reads.AlignedRead{
		Pos:    0,
		Bases:  make(dna.Sequence, 300),
		Quals:  make([]dna.Quality, 300),
		Strand: 0,
	}
	if _, ok := ObsOf(&r, 299); ok {
		t.Error("coordinate 299 accepted beyond MaxReadLen")
	}
	if _, ok := ObsOf(&r, 100); !ok {
		t.Error("in-range coordinate rejected")
	}
}
