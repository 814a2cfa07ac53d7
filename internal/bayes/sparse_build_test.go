package bayes

import (
	"math"
	"math/rand"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/seqsim"
)

// densePMatrix is the reference for Calibration.BuildInto: the triple loop
// that computes every (q, coord, allele) row from its counts, with no
// knowledge of which rows are empty.
func densePMatrix(c *Calibration) PMatrix {
	w := c.PseudoWeight
	if w <= 0 {
		w = DefaultPseudoWeight
	}
	p := make(PMatrix, PMatrixSize)
	for q := dna.Quality(0); q < NQ; q++ {
		e := q.ErrorProbability()
		for coord := 0; coord < MaxReadLen; coord++ {
			for allele := dna.Base(0); allele < dna.NBases; allele++ {
				row := PMatrixIndex(q, coord, allele, 0)
				var total uint64
				for b := 0; b < dna.NBases; b++ {
					total += c.counts[row+b]
				}
				for b := dna.Base(0); b < dna.NBases; b++ {
					phred := e / 3
					if b == allele {
						phred = 1 - e
					}
					v := (float64(c.counts[row+int(b)]) + w*phred) / (float64(total) + w)
					if v < minProb {
						v = minProb
					}
					p[row+int(b)] = v
				}
			}
		}
	}
	return p
}

// denseNewPMatrix is the reference for NewPMatrix.BuildInto: one logarithm
// per entry, no slot reuse.
func denseNewPMatrix(p PMatrix) NewPMatrix {
	np := make(NewPMatrix, NewPMatrixSize)
	gs := dna.Genotypes()
	for q := dna.Quality(0); q < NQ; q++ {
		for coord := 0; coord < MaxReadLen; coord++ {
			for base := dna.Base(0); base < dna.NBases; base++ {
				for rank, g := range gs {
					a1, a2 := g.Alleles()
					v := 0.5*p.At(q, coord, a1, base) + 0.5*p.At(q, coord, a2, base)
					np[NewPMatrixIndex(q, coord, base, rank)] = math.Log10(v)
				}
			}
		}
	}
	return np
}

// densePhredPMatrix is the reference for NewPMatrixFromPhred.
func densePhredPMatrix() PMatrix {
	p := make(PMatrix, PMatrixSize)
	for q := dna.Quality(0); q < NQ; q++ {
		e := q.ErrorProbability()
		for coord := 0; coord < MaxReadLen; coord++ {
			for allele := dna.Base(0); allele < dna.NBases; allele++ {
				for base := dna.Base(0); base < dna.NBases; base++ {
					v := e / 3
					if base == allele {
						v = 1 - e
					}
					if v < minProb {
						v = minProb
					}
					p[PMatrixIndex(q, coord, allele, base)] = v
				}
			}
		}
	}
	return p
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), dense reference %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// seqsimCalibration runs cal_p_matrix's observation rule over a simulated
// chromosome (package pipeline imports this one, so its CalibrationPass
// cannot be called from here).
func seqsimCalibration() *Calibration {
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{Name: "t", Length: 20000, Depth: 8, Seed: 3})
	c := NewCalibration()
	for i := range ds.Reads {
		r := &ds.Reads[i]
		for off, b := range r.Bases {
			if pos := r.Pos + off; pos >= 0 && pos < len(ds.Ref.Seq) {
				c.Observe(r.Quals[off], r.Cycle(off), ds.Ref.Seq[pos], b)
			}
		}
	}
	return c
}

// TestSparseBuildBitIdentical is the oracle of the sparse table build:
// every one of the 262,144 p_matrix and 655,360 new_p_matrix entries must
// carry the bits the dense loops produce, on a calibration with no rows,
// with rows scattered everywhere (holes between observed coordinates
// included) and with the rows a real chromosome fills.
func TestSparseBuildBitIdentical(t *testing.T) {
	random := NewCalibration()
	random.PseudoWeight = 7.5
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40000; i++ {
		q, coord := dna.Quality(rng.Intn(NQ)), rng.Intn(MaxReadLen)
		ref, obs := dna.Base(rng.Intn(dna.NBases)), dna.Base(rng.Intn(dna.NBases))
		for n := rng.Intn(4); n >= 0; n-- {
			random.Observe(q, coord, ref, obs)
		}
	}
	for _, tc := range []struct {
		name string
		cal  *Calibration
	}{
		{"empty", NewCalibration()},
		{"random", random},
		{"seqsim", seqsimCalibration()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantP := densePMatrix(tc.cal)
			requireSameBits(t, "p_matrix", tc.cal.Build(), wantP)
			requireSameBits(t, "new_p_matrix", BuildNewPMatrix(wantP), denseNewPMatrix(wantP))

			// Rebuilding over storage that holds another input's tables
			// must leave no entry behind.
			stale := NewPMatrixFromPhred()
			for i := range stale {
				stale[i] = -1
			}
			var tb Tables
			tb.Build(stale)
			p := tc.cal.BuildInto(stale)
			if &p[0] != &stale[0] {
				t.Error("BuildInto allocated although the storage sufficed")
			}
			staleNewP := tb.NewP
			tb.Build(p)
			if &tb.NewP[0] != &staleNewP[0] {
				t.Error("Tables.Build allocated although the storage sufficed")
			}
			requireSameBits(t, "rebuilt p_matrix", tb.P, wantP)
			requireSameBits(t, "rebuilt new_p_matrix", tb.NewP, denseNewPMatrix(wantP))
		})
	}
	requireSameBits(t, "phred p_matrix", NewPMatrixFromPhred(), densePhredPMatrix())
}

// TestCalibrationRunningTotal pins Observations against the sum of the
// counters through Observe, Merge and Reset.
func TestCalibrationRunningTotal(t *testing.T) {
	sum := func(c *Calibration) (n uint64) {
		for _, v := range c.counts {
			n += v
		}
		return n
	}
	a, b := seqsimCalibration(), NewCalibration()
	b.Observe(12, 5, dna.C, dna.G)
	b.Observe(12, 5, dna.C, dna.G)
	a.Merge(b)
	if a.Observations() == 0 || a.Observations() != sum(a) {
		t.Errorf("Observations = %d, counters sum to %d", a.Observations(), sum(a))
	}
	a.Reset()
	if a.Observations() != 0 || sum(a) != 0 {
		t.Errorf("after Reset: Observations = %d, counters sum to %d", a.Observations(), sum(a))
	}
	requireSameBits(t, "p_matrix after Reset", a.Build(), densePMatrix(NewCalibration()))
}
