package bayes

import (
	"math"

	"gsnp/internal/dna"
)

// LogTable holds log10(i) for the integers 0..64, the table Section IV-G
// computes once on the CPU and places in GPU constant memory so both
// processors use identical values. Entry 0 is a guard and holds 0.
type LogTable [NQ + 1]float64

// BuildLogTable computes the table with the host libm.
func BuildLogTable() *LogTable {
	var t LogTable
	for i := 1; i <= NQ; i++ {
		t[i] = math.Log10(float64(i))
	}
	return &t
}

// AdjustTable maps a per-coordinate stacked-observation count to the Phred
// penalty subtracted from the quality score:
//
//	penalty[d] = round(10 * log10(1 + min(d, 63)))
//
// so the first observation at a read coordinate keeps its full quality and
// each further stacked observation is damped — SOAPsnp's modelling of the
// statistical dependency among reads that align the same cycle to the same
// site. The table is derived from LogTable, keeping the CPU and GPU paths
// bit-identical.
type AdjustTable [NQ]uint8

// BuildAdjustTable derives the penalty table from lt.
func BuildAdjustTable(lt *LogTable) *AdjustTable {
	var a AdjustTable
	for d := 0; d < NQ; d++ {
		a[d] = uint8(math.Round(10 * lt[d+1]))
	}
	return &a
}

// Adjust applies the stacked-observation penalty to score. depCount is the
// number of observations already accumulated at the (strand, coordinate)
// slot including the current one (Algorithm 1 line 10 / Algorithm 4 line
// 12 call adjust after the increment).
func (a *AdjustTable) Adjust(score dna.Quality, depCount uint16) dna.Quality {
	d := int(depCount) - 1
	if d < 0 {
		d = 0
	}
	if d >= NQ {
		d = NQ - 1
	}
	p := int(score) - int(a[d])
	if p < 0 {
		return 0
	}
	return dna.Quality(p)
}

// PMatrix is the calibrated score matrix: entry PMatrixIndex(q, coord,
// allele, base) holds P(observed base | true allele, adjusted quality q,
// read coordinate coord). It is the output of cal_p_matrix and an input of
// the likelihood calculation (Algorithm 2).
type PMatrix []float64

// NewPMatrixFromPhred builds an analytic p_matrix directly from the Phred
// error model, P(obs==allele) = 1-e(q) and e(q)/3 otherwise, independent of
// the read coordinate. It is the calibration prior and a useful fixture.
func NewPMatrixFromPhred() PMatrix {
	p := make(PMatrix, PMatrixSize)
	for q := dna.Quality(0); q < NQ; q++ {
		e := q.ErrorProbability()
		first := p[PMatrixIndex(q, 0, 0, 0):PMatrixIndex(q, 1, 0, 0)]
		for allele := dna.Base(0); allele < dna.NBases; allele++ {
			for base := dna.Base(0); base < dna.NBases; base++ {
				v := e / 3
				if base == allele {
					v = 1 - e
				}
				if v < minProb {
					v = minProb
				}
				first[PMatrixIndex(0, 0, allele, base)] = v
			}
		}
		for coord := 1; coord < MaxReadLen; coord++ {
			copy(p[PMatrixIndex(q, coord, 0, 0):], first)
		}
	}
	return p
}

// minProb floors matrix probabilities so their logarithms stay finite.
const minProb = 1e-10

// At reads the matrix with named coordinates.
func (p PMatrix) At(q dna.Quality, coord int, allele, base dna.Base) float64 {
	return p[PMatrixIndex(q, coord, allele, base)]
}

// NewPMatrix is the precomputed score table of Section IV-D: for every
// (quality, coordinate, observed base) triple it stores the ten values
//
//	log10(0.5*P(base|allele1) + 0.5*P(base|allele2))
//
// for the ten unordered genotypes, in canonical genotype order. Likelihood
// updates become a single table read (Algorithm 3), with no runtime
// logarithms.
type NewPMatrix []float64

// BuildNewPMatrix expands p into a freshly allocated ten-genotype table;
// see BuildInto.
func BuildNewPMatrix(p PMatrix) NewPMatrix { return NewPMatrix(nil).BuildInto(p) }

// BuildInto expands p into the ten-genotype table, written over np when np
// has the capacity and allocated otherwise. Like the paper, the table is
// computed once on the CPU so GPU and CPU consume identical values.
//
// The 40 entries of a (quality, coordinate) slot are a function of that
// slot's 16 p_matrix entries alone, and p_matrix repeats one slot over
// every coordinate a quality has no observations at (all of them, for a
// quality the input never used). A slot whose inputs equal the preceding
// coordinate's bit for bit therefore copies that coordinate's outputs
// instead of taking 40 logarithms of the same numbers again.
func (np NewPMatrix) BuildInto(p PMatrix) NewPMatrix {
	if cap(np) < NewPMatrixSize {
		np = make(NewPMatrix, NewPMatrixSize)
	}
	np = np[:NewPMatrixSize]
	gs := dna.Genotypes()
	const pSlot, npSlot = dna.NBases * dna.NBases, dna.NBases * dna.NGenotypes
	for q := dna.Quality(0); q < NQ; q++ {
		for coord := 0; coord < MaxReadLen; coord++ {
			in := PMatrixIndex(q, coord, 0, 0)
			out := NewPMatrixIndex(q, coord, 0, 0)
			if coord > 0 && sameBits(p[in:in+pSlot], p[in-pSlot:in]) {
				copy(np[out:out+npSlot], np[out-npSlot:out])
				continue
			}
			for base := dna.Base(0); base < dna.NBases; base++ {
				for rank, g := range gs {
					a1, a2 := g.Alleles()
					v := 0.5*p[in+int(a1)<<2+int(base)] + 0.5*p[in+int(a2)<<2+int(base)]
					np[out+int(base)*dna.NGenotypes+rank] = math.Log10(v)
				}
			}
		}
	}
	return np
}

// sameBits reports whether a and b (of equal length) hold identical
// float64 bit patterns — stricter than ==, which equates +0 with -0.
func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// At reads the table with named coordinates.
func (np NewPMatrix) At(q dna.Quality, coord int, base dna.Base, genotypeRank int) float64 {
	return np[NewPMatrixIndex(q, coord, base, genotypeRank)]
}

// LikelyUpdate is Algorithm 2: the dense pipeline's per-observation
// likelihood contribution for genotype {allele1, allele2}, computed from
// p_matrix with a runtime logarithm.
func LikelyUpdate(p PMatrix, q dna.Quality, coord int, base, allele1, allele2 dna.Base) float64 {
	p1 := p[PMatrixIndex(q, coord, allele1, base)]
	p2 := p[PMatrixIndex(q, coord, allele2, base)]
	return math.Log10(0.5*p1 + 0.5*p2)
}

// Tables bundles every precomputed table a pipeline needs. Building it
// corresponds to the paper's load_table component.
type Tables struct {
	Log    *LogTable
	Adjust *AdjustTable
	P      PMatrix
	NewP   NewPMatrix
}

// BuildTables assembles a new table set from a calibrated p_matrix.
func BuildTables(p PMatrix) *Tables {
	t := new(Tables)
	t.Build(p)
	return t
}

// Build assembles the table set from a calibrated p_matrix in place: t
// takes p as its P, NewP is rebuilt over its existing storage, and the
// input-independent log and adjust tables are computed on first use only.
func (t *Tables) Build(p PMatrix) {
	if t.Log == nil {
		t.Log = BuildLogTable()
		t.Adjust = BuildAdjustTable(t.Log)
	}
	t.P = p
	t.NewP = t.NewP.BuildInto(p)
}
