package bayes

import "gsnp/internal/dna"

// Calibration accumulates observation counts for cal_p_matrix: how often an
// aligned base o was observed at quality q and read coordinate c over a
// reference site whose base is r. SOAPsnp's recalibration treats the
// reference base as the true allele (valid because the overwhelming
// majority of sites are homozygous reference) and smooths the counted
// frequencies toward the Phred error model.
type Calibration struct {
	// counts is indexed by PMatrixIndex(q, coord, ref, obs).
	counts []uint64
	// total is the number of recorded observations, the sum of counts.
	total uint64
	// PseudoWeight is the number of virtual observations drawn from the
	// Phred model blended into every (q, coord, ref) row. Zero selects
	// DefaultPseudoWeight.
	PseudoWeight float64
}

// DefaultPseudoWeight is the smoothing mass used when Calibration.
// PseudoWeight is zero.
const DefaultPseudoWeight = 50

// NewCalibration returns an empty accumulator.
func NewCalibration() *Calibration {
	return &Calibration{counts: make([]uint64, PMatrixSize)}
}

// Reset empties the accumulator for the next input, keeping its storage
// and PseudoWeight.
func (c *Calibration) Reset() {
	clear(c.counts)
	c.total = 0
}

// Observe records one aligned base: observed base obs with quality q at
// read coordinate coord over a reference base ref.
func (c *Calibration) Observe(q dna.Quality, coord int, ref, obs dna.Base) {
	c.counts[PMatrixIndex(q, coord, ref, obs)]++
	c.total++
}

// Observations returns the total number of recorded observations.
func (c *Calibration) Observations() uint64 { return c.total }

// Merge folds the counts of o into c, allowing parallel accumulation.
func (c *Calibration) Merge(o *Calibration) {
	for i, v := range o.counts {
		c.counts[i] += v
	}
	c.total += o.total
}

// Build converts the counts into a freshly allocated calibrated p_matrix;
// see BuildInto.
func (c *Calibration) Build() PMatrix { return c.BuildInto(nil) }

// BuildInto converts the counts into the calibrated p_matrix:
//
//	P(obs | allele, q, coord) =
//	    (count(q,coord,allele,obs) + w*phred(q,allele,obs)) /
//	    (rowTotal(q,coord,allele)  + w)
//
// where phred is the analytic error model and w the pseudo-observation
// weight. Rows with no data reduce to the pure Phred model, so the matrix
// is well defined even for unexercised qualities or coordinates.
//
// The matrix is written over p when p has the capacity and allocated
// otherwise. Most rows have no data — an input exercises its own read
// length and quality range, the matrix covers 256 cycles of 64 scores —
// and such a row depends on the quality and the allele only, so it is
// computed once per quality, through the same operations as a counted
// row, and copied to every coordinate without observations.
func (c *Calibration) BuildInto(p PMatrix) PMatrix {
	w := c.PseudoWeight
	if w <= 0 {
		w = DefaultPseudoWeight
	}
	if cap(p) < PMatrixSize {
		p = make(PMatrix, PMatrixSize)
	}
	p = p[:PMatrixSize]
	var none [dna.NBases]uint64
	for q := dna.Quality(0); q < NQ; q++ {
		e := q.ErrorProbability()
		var empty [dna.NBases][dna.NBases]float64
		for allele := dna.Base(0); allele < dna.NBases; allele++ {
			calibratedRow(empty[allele][:], none[:], allele, e, w)
		}
		for coord := 0; coord < MaxReadLen; coord++ {
			for allele := dna.Base(0); allele < dna.NBases; allele++ {
				row := PMatrixIndex(q, coord, allele, 0)
				counts := c.counts[row : row+dna.NBases]
				if counts[0]|counts[1]|counts[2]|counts[3] == 0 {
					copy(p[row:row+dna.NBases], empty[allele][:])
					continue
				}
				calibratedRow(p[row:row+dna.NBases], counts, allele, e, w)
			}
		}
	}
	return p
}

// calibratedRow fills one (q, coord, allele) row of p_matrix — the four
// observed-base probabilities — from the row's counts, the error
// probability e of its quality and the pseudo-observation weight w.
func calibratedRow(dst []float64, counts []uint64, allele dna.Base, e, w float64) {
	var total uint64
	for _, n := range counts {
		total += n
	}
	for b := dna.Base(0); b < dna.NBases; b++ {
		phred := e / 3
		if b == allele {
			phred = 1 - e
		}
		v := (float64(counts[b]) + w*phred) / (float64(total) + w)
		if v < minProb {
			v = minProb
		}
		dst[b] = v
	}
}
