// Package pipeline holds the machinery shared by the SOAPsnp baseline and
// the GSNP engine: the two-pass driver itself (Run, which every engine sits
// behind as a window Kernel), alignment sources that can be read twice (pass
// one for cal_p_matrix, pass two for the windowed per-site computation),
// per-site observation records and counts, and the construction of result
// rows from genotype likelihoods. Both engines build rows through this
// package with identical arithmetic, which is what makes their outputs
// byte-identical — the consistency requirement of Section IV-G of the paper.
package pipeline

import (
	"io"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/reads"
)

// ReadIter streams position-sorted alignment records; Next returns io.EOF
// at the end of the stream. snpio's SOAP and temp-input readers implement
// it.
type ReadIter interface {
	Next() (reads.AlignedRead, error)
}

// Source provides the alignment input. SNP detection reads its input twice
// (Section V-A: the score-matrix calculation needs all data before the
// windowed pass begins), so a Source must be openable repeatedly.
type Source interface {
	Open() (ReadIter, error)
}

// MemSource serves reads from memory. It implements Source.
type MemSource []reads.AlignedRead

// Open returns an iterator over the slice.
func (m MemSource) Open() (ReadIter, error) {
	return &memIter{rs: m}, nil
}

type memIter struct {
	rs []reads.AlignedRead
	i  int
}

func (it *memIter) Next() (reads.AlignedRead, error) {
	if it.i >= len(it.rs) {
		return reads.AlignedRead{}, io.EOF
	}
	r := it.rs[it.i]
	it.i++
	return r, nil
}

// FuncSource adapts an open function to Source.
type FuncSource func() (ReadIter, error)

// Open invokes the function.
func (f FuncSource) Open() (ReadIter, error) { return f() }

// Obs is one aligned base over a site: the observation unit of the
// likelihood model.
type Obs struct {
	// Base is the observed base (reference orientation).
	Base dna.Base
	// Qual is the clamped sequencing quality.
	Qual dna.Quality
	// Coord is the sequencing cycle (coordinate on the read as
	// sequenced), < bayes.MaxReadLen.
	Coord uint8
	// Strand is the read strand.
	Strand uint8
	// Uniq marks observations from uniquely aligned reads.
	Uniq bool
}

// ObsOf extracts the observation of read r over reference position pos.
// ok is false when the read does not cover pos or the coordinate exceeds
// the model's maximum read length.
func ObsOf(r *reads.AlignedRead, pos int) (Obs, bool) {
	off := pos - r.Pos
	if off < 0 || off >= len(r.Bases) {
		return Obs{}, false
	}
	cyc := r.Cycle(off)
	if cyc >= bayes.MaxReadLen {
		return Obs{}, false
	}
	return Obs{
		Base:   r.Bases[off],
		Qual:   r.Quals[off],
		Coord:  uint8(cyc),
		Strand: r.Strand,
		Uniq:   r.Hits == 1,
	}, true
}

// SiteCounts aggregates the counting component's per-site statistics, the
// inputs of the count/quality columns of the result table. Every counter
// saturates at its type maximum instead of wrapping: pileup hotspots
// (repeat regions collapse tens of thousands of reads onto one site) would
// otherwise wrap the 16-bit counters and scramble the best/second-base
// ranking. Saturating addition is order-independent for non-negative
// increments, so the GPU engine's atomic accumulation clamps to the same
// values.
type SiteCounts struct {
	// Depth is the total number of aligned bases, saturating at 65,535.
	Depth uint16
	// Count, QualSum and Uniq are per observed base: occurrence count,
	// sum of quality scores, and count from uniquely aligned reads, each
	// saturating at its type maximum.
	Count   [dna.NBases]uint16
	QualSum [dna.NBases]uint32
	Uniq    [dna.NBases]uint16
}

// satU16 is the saturation limit of the 16-bit counters.
const satU16 = 1<<16 - 1

// SatDepth converts a wide accumulated count to the saturated 16-bit
// domain of SiteCounts (shared with the GPU counting kernels, which
// accumulate in uint32 on the device and clamp here on readback).
func SatDepth(n uint32) uint16 {
	if n > satU16 {
		return satU16
	}
	return uint16(n)
}

// Add folds one observation into the counts, saturating each counter.
func (c *SiteCounts) Add(o Obs) {
	if c.Depth < satU16 {
		c.Depth++
	}
	if c.Count[o.Base] < satU16 {
		c.Count[o.Base]++
	}
	if s := c.QualSum[o.Base] + uint32(o.Qual); s >= c.QualSum[o.Base] {
		c.QualSum[o.Base] = s
	} else {
		c.QualSum[o.Base] = ^uint32(0)
	}
	if o.Uniq && c.Uniq[o.Base] < satU16 {
		c.Uniq[o.Base]++
	}
}

// Reset zeroes the counts for window reuse.
func (c *SiteCounts) Reset() { *c = SiteCounts{} }

// BestSecond returns the most and second-most supported bases by count
// (ties broken toward the smaller base code, deterministically). hasSecond
// is false when fewer than two distinct bases were observed.
func (c *SiteCounts) BestSecond() (best dna.Base, second dna.Base, hasBest, hasSecond bool) {
	bi, si := -1, -1
	for b := 0; b < dna.NBases; b++ {
		if c.Count[b] == 0 {
			continue
		}
		switch {
		case bi < 0 || c.Count[b] > c.Count[bi]:
			si = bi
			bi = b
		case si < 0 || c.Count[b] > c.Count[si]:
			si = b
		}
	}
	if bi >= 0 {
		best, hasBest = dna.Base(bi), true
	}
	if si >= 0 {
		second, hasSecond = dna.Base(si), true
	}
	return best, second, hasBest, hasSecond
}

// AvgQual returns the rounded average quality of base b's observations.
// At a saturated site Count stops at 65,535 while QualSum keeps the full
// sum, so the quotient can exceed the true quality range; it is clamped so
// the 8-bit column cannot wrap.
func (c *SiteCounts) AvgQual(b dna.Base) uint8 {
	if c.Count[b] == 0 {
		return 0
	}
	// 64-bit so the rounding addend cannot wrap a near-ceiling QualSum.
	q := (uint64(c.QualSum[b]) + uint64(c.Count[b])/2) / uint64(c.Count[b])
	if q > 255 {
		q = 255
	}
	return uint8(q)
}
