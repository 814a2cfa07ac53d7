package align

import (
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/seqsim"
)

// benchData is BenchmarkAlignReads' dataset: a 200 kb reference and about
// 16 000 simulated 100 bp reads at depth 8, in sequencing orientation.
func benchData(tb testing.TB) (dna.Sequence, []RawRead) {
	tb.Helper()
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "bench", Length: 200_000, Seed: 21})
	dip := seqsim.MakeDiploid(ref, seqsim.DefaultDiploidSpec(21))
	truth, _ := seqsim.SampleReads(dip, seqsim.DefaultReadSpec(8, 22))
	raws := make([]RawRead, len(truth))
	for i := range truth {
		raws[i] = RawFromAligned(&truth[i])
	}
	return ref.Seq, raws
}

// BenchmarkAlignReads measures alignment-stage throughput (one op = one
// full read-set alignment over a 200 kb reference) serially and sharded,
// the FASTQ-to-VCF pipeline's added stage.
func BenchmarkAlignReads(b *testing.B) {
	ref, raws := benchData(b)
	ix, err := BuildIndex(ref, DefaultK)
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

// BenchmarkBuildIndex measures the seed index build over the same 200 kb
// reference (one op = one index), which every FASTQ chromosome pays once.
func BenchmarkBuildIndex(b *testing.B) {
	ref, _ := benchData(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(ref)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildIndex(ref, DefaultK); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAlignReadsAllocsPerRead gates the aligner's per-read garbage on
// BenchmarkAlignReads' dataset at one worker. Scratch is per shard and
// Bases/Quals come from chunked slabs, so allocations grow by chunk, not
// by read. The map-of-slices aligner made about 4.7 per read (77 273 for
// 16 320 reads): a seen-map per orientation, the reverse complement, the
// sort.Slice closure and fresh Bases/Quals.
func TestAlignReadsAllocsPerRead(t *testing.T) {
	ref, raws := benchData(t)
	ix, err := BuildIndex(ref, DefaultK)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() { AlignReadsParallel(ix, raws, DefaultMaxMismatch, 1) })
	if perRead := allocs / float64(len(raws)); perRead > 0.05 {
		t.Errorf("%.0f allocations for %d reads = %.3f per read, want <= 0.05", allocs, len(raws), perRead)
	}
}

// TestBuildIndexAllocs: the index is a table, a position array and the
// Index itself whatever the reference length; a map of one slice per
// k-mer allocated in proportion to it.
func TestBuildIndexAllocs(t *testing.T) {
	var counts []float64
	for _, n := range []int{10_000, 80_000} {
		ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "r", Length: n, Seed: 5}).Seq
		counts = append(counts, testing.AllocsPerRun(3, func() {
			if _, err := BuildIndex(ref, DefaultK); err != nil {
				t.Fatal(err)
			}
		}))
	}
	if counts[0] != counts[1] || counts[1] > 3 {
		t.Errorf("BuildIndex allocations at 10 kb and 80 kb = %v, want the same constant <= 3", counts)
	}
}
