package pipeline

import (
	"io"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/reads"
	"gsnp/internal/snpio"
)

// RowInputs carries everything the output component needs for one site.
type RowInputs struct {
	// Chr and Pos identify the site (Pos is zero-based; the row gets the
	// 1-based position).
	Chr string
	Pos int
	// Ref is the reference base.
	Ref dna.Base
	// Call is the posterior genotype call.
	Call bayes.Call
	// Counts is the counting component's summary.
	Counts *SiteCounts
	// AlleleQuals holds the quality scores supporting each base, in
	// canonical observation order, for the rank-sum test.
	AlleleQuals *[dna.NBases][]float64
	// MeanDepth is the data set's average depth (from pass one), the
	// denominator of the copy-number estimate.
	MeanDepth float64
	// Known is non-nil when the site appears in the prior file.
	Known *bayes.KnownSNP
}

// BuildRow assembles the 17-column result row for one site in row,
// writing every field, and reports whether the call is a SNP — a genotype
// other than the reference homozygote, what row.IsSNP reports — without
// parsing the row's letters back. Both engines call this with identical
// inputs, making their outputs byte-identical.
func BuildRow(row *snpio.Row, in *RowInputs) (snp bool) {
	c := in.Counts
	row.Chr = in.Chr
	row.Pos = int64(in.Pos) + 1
	row.Ref = in.Ref.Byte()
	row.Genotype = in.Call.Genotype.IUPAC()
	row.Quality = uint8(in.Call.Quality)
	row.Depth = c.Depth

	best, second, hasBest, hasSecond := c.BestSecond()
	if hasBest {
		row.BestBase = best.Byte()
		row.AvgQualBest = c.AvgQual(best)
		row.CountBest = c.Count[best]
		row.CountUniqBest = c.Uniq[best]
	} else {
		// No coverage: the best base defaults to the reference.
		row.BestBase, row.AvgQualBest, row.CountBest, row.CountUniqBest = row.Ref, 0, 0, 0
	}
	if hasSecond {
		row.SecondBase = second.Byte()
		row.AvgQualSecond = c.AvgQual(second)
		row.CountSecond = c.Count[second]
		row.CountUniqSecond = c.Uniq[second]
	} else {
		row.SecondBase, row.AvgQualSecond, row.CountSecond, row.CountUniqSecond = 'N', 0, 0, 0
	}

	// Rank-sum strand/quality bias test for heterozygous calls: compare
	// the quality distributions supporting the two alleles.
	row.RankSumP = 1
	if !in.Call.Genotype.IsHomozygous() && in.AlleleQuals != nil {
		a1, a2 := in.Call.Genotype.Alleles()
		row.RankSumP = bayes.RankSum(in.AlleleQuals[a1], in.AlleleQuals[a2])
	}

	row.CopyNum = 0
	if in.MeanDepth > 0 {
		row.CopyNum = float64(c.Depth) / in.MeanDepth
	}
	row.IsDbSNP = 0
	if in.Known != nil {
		row.IsDbSNP = 1
	}
	snpio.QuantizeRow(row)
	return in.Call.Genotype != dna.HomozygousGenotype(in.Ref)
}

// CalibrationPass is the shared pass-one logic of cal_p_matrix over a
// calibration of its own; see Calibrate.
func CalibrationPass(src Source, ref dna.Sequence, sink func(*reads.AlignedRead) error) (*bayes.Calibration, float64, error) {
	cal := bayes.NewCalibration()
	mean, _, err := Calibrate(cal, src, ref, sink)
	if err != nil {
		return nil, 0, err
	}
	return cal, mean, nil
}

// Calibrate resets cal and streams the whole input once into it, feeding
// every observation into the calibration against the reference and counting
// aligned bases for the mean-depth estimate it returns, along with the
// length of the longest read it saw (the dep_count stride of pass two
// follows from it; see Run). The caller may supply a sink that sees every
// read during the same pass (the driver passes none).
// Taking the calibration from the caller lets the driver reuse one set of
// counters for every input it runs.
func Calibrate(cal *bayes.Calibration, src Source, ref dna.Sequence, sink func(*reads.AlignedRead) error) (meanDepth float64, longest int, err error) {
	cal.Reset()
	it, err := src.Open()
	if err != nil {
		return 0, 0, err
	}
	var bases int64
	// One record for the whole pass: the sink takes its address, and a
	// record declared per iteration would be heap-allocated per read.
	var r reads.AlignedRead
	for {
		r, err = it.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, 0, err
		}
		longest = max(longest, len(r.Bases))
		// The observations of ObsOf over the read's span of the reference,
		// without building an Obs per base: this loop runs once per aligned
		// base of the input (TestCalibrateMatchesObsOf ties the two).
		lo, hi := max(0, -r.Pos), min(len(r.Bases), len(ref)-r.Pos)
		for off := lo; off < hi; off++ {
			cyc := r.Cycle(off)
			if cyc >= bayes.MaxReadLen {
				continue
			}
			cal.Observe(dna.ClampQuality(int(r.Quals[off])), cyc, ref[r.Pos+off], r.Bases[off])
			bases++
		}
		if sink != nil {
			if err := sink(&r); err != nil {
				return 0, 0, err
			}
		}
	}
	if len(ref) > 0 {
		meanDepth = float64(bases) / float64(len(ref))
	}
	return meanDepth, longest, nil
}
