package seqsim

import "gsnp/internal/reads"

// This file describes the scaled whole-human-genome workload: the paper
// evaluates on 24 chromosome files (Section VI-A, Figure 12); we keep their
// relative sizes but scale absolute lengths so experiments complete on a
// development machine.

// ChromosomeSpec describes one chromosome of the scaled genome.
type ChromosomeSpec struct {
	// Name is the chromosome label.
	Name string
	// Length is the scaled reference length in bp.
	Length int
	// Depth is the sequencing depth of the data set for this chromosome.
	Depth float64
	// MaskFraction is the uncovered fraction (1 - coverage target).
	MaskFraction float64
	// Seed seeds all generation for the chromosome.
	Seed int64
}

// humanChromosomeMb lists approximate human chromosome lengths in Mb
// (GRCh36 era, matching the paper's data: Ch.1 = 247 M sites, Ch.21 = 47 M).
var humanChromosomeMb = map[string]float64{
	"chr1": 247, "chr2": 243, "chr3": 199, "chr4": 191, "chr5": 181,
	"chr6": 171, "chr7": 159, "chr8": 146, "chr9": 140, "chr10": 135,
	"chr11": 134, "chr12": 132, "chr13": 114, "chr14": 106, "chr15": 100,
	"chr16": 89, "chr17": 79, "chr18": 76, "chr19": 64, "chr20": 62,
	"chr21": 47, "chr22": 50, "chrX": 155, "chrY": 58,
}

// chromosomeOrder is the 24-sequence order used in reports.
var chromosomeOrder = []string{
	"chr1", "chr2", "chr3", "chr4", "chr5", "chr6", "chr7", "chr8",
	"chr9", "chr10", "chr11", "chr12", "chr13", "chr14", "chr15", "chr16",
	"chr17", "chr18", "chr19", "chr20", "chr21", "chr22", "chrX", "chrY",
}

// ScaledHumanGenome returns specs for all 24 chromosomes with lengths
// scaled to sitesPerMb sites per real megabase (e.g. sitesPerMb = 2000
// makes chr1 around 494,000 sites). Depths follow the paper's data: chr1
// at 11X, chr21 at 9.6X, the rest interpolated around 10-11X; coverage
// targets are 88% for chr1 and 68% for chr21 as in Table II.
func ScaledHumanGenome(sitesPerMb int, seed int64) []ChromosomeSpec {
	specs := make([]ChromosomeSpec, 0, len(chromosomeOrder))
	for i, name := range chromosomeOrder {
		depth := 10.0 + 0.5*float64(i%4)
		mask := 0.15
		switch name {
		case "chr1":
			depth, mask = 11.0, 0.12
		case "chr21":
			depth, mask = 9.6, 0.32
		case "chrY":
			depth, mask = 9.0, 0.40 // Y is poorly covered in practice
		}
		specs = append(specs, ChromosomeSpec{
			Name:         name,
			Length:       int(humanChromosomeMb[name] * float64(sitesPerMb)),
			Depth:        depth,
			MaskFraction: mask,
			Seed:         seed + int64(i)*7919,
		})
	}
	return specs
}

// Dataset bundles everything one chromosome's SNP-calling run consumes.
type Dataset struct {
	Spec     ChromosomeSpec
	Ref      *Reference
	Diploid  *Diploid
	Reads    []reads.AlignedRead
	Mask     []bool
	ReadSpec ReadSpec
}

// BuildDataset generates the reference, individual and reads for spec.
func BuildDataset(spec ChromosomeSpec) *Dataset {
	ref := GenerateReference(GenomeSpec{Name: spec.Name, Length: spec.Length, Seed: spec.Seed})
	dip := MakeDiploid(ref, DefaultDiploidSpec(spec.Seed+1))
	rspec := DefaultReadSpec(spec.Depth, spec.Seed+2)
	rspec.MaskFraction = spec.MaskFraction
	rs, mask := SampleReads(dip, rspec)
	return &Dataset{Spec: spec, Ref: ref, Diploid: dip, Reads: rs, Mask: mask, ReadSpec: rspec}
}

// Stats returns the Table II characteristics of the data set.
func (d *Dataset) Stats() reads.CoverageStats {
	return reads.Stats(d.Reads, len(d.Ref.Seq))
}
