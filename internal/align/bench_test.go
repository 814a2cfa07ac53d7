package align

import (
	"testing"

	"gsnp/internal/seqsim"
)

// BenchmarkAlignReads measures alignment-stage throughput (one op = one
// full read-set alignment over a 200 kb reference) serially and sharded,
// the FASTQ-to-VCF pipeline's added stage.
func BenchmarkAlignReads(b *testing.B) {
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "bench", Length: 200_000, Seed: 21})
	dip := seqsim.MakeDiploid(ref, seqsim.DefaultDiploidSpec(21))
	truth, _ := seqsim.SampleReads(dip, seqsim.DefaultReadSpec(8, 22))
	raws := make([]RawRead, len(truth))
	for i := range truth {
		raws[i] = RawFromAligned(&truth[i])
	}
	ix, err := BuildIndex(ref.Seq, DefaultK)
	if err != nil {
		b.Fatal(err)
	}
	bases := 0
	for i := range raws {
		bases += len(raws[i].Seq)
	}
	for _, bc := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"workers4", 4}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := AlignReadsParallel(ix, raws, DefaultMaxMismatch, bc.workers)
				if len(out) == 0 {
					b.Fatal("no reads aligned")
				}
			}
			b.SetBytes(int64(bases))
		})
	}
}
