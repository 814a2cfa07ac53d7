package align

import (
	"reflect"
	"strings"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/par"
	"gsnp/internal/reads"
	"gsnp/internal/seqsim"
)

func TestBuildIndexErrors(t *testing.T) {
	ref, _ := dna.ParseSequence("ACGTACGT")
	if _, err := BuildIndex(ref, 32); err == nil {
		t.Error("k=32 accepted")
	}
	if _, err := BuildIndex(ref[:3], 16); err == nil {
		t.Error("reference shorter than k accepted")
	}
	long, _ := dna.ParseSequence("ACGTACGTACGTACGTACGTACGT")
	ix, err := BuildIndex(long, 0)
	if err != nil {
		t.Fatalf("default k rejected: %v", err)
	}
	if ix.K() != DefaultK {
		t.Errorf("K = %d", ix.K())
	}
}

func TestAlignExactForward(t *testing.T) {
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "r", Length: 5000, Seed: 1}).Seq
	ix, err := BuildIndex(ref, 16)
	if err != nil {
		t.Fatal(err)
	}
	read := append(dna.Sequence(nil), ref[1234:1334]...)
	hits := ix.Align(read, 2)
	if len(hits) == 0 {
		t.Fatal("exact read not aligned")
	}
	if hits[0].Pos != 1234 || hits[0].Strand != 0 || hits[0].Mismatches != 0 {
		t.Errorf("best hit = %+v, want pos 1234 forward exact", hits[0])
	}
}

func TestAlignReverseStrand(t *testing.T) {
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "r", Length: 5000, Seed: 2}).Seq
	ix, _ := BuildIndex(ref, 16)
	read := dna.Sequence(ref[700:800]).ReverseComplement()
	hits := ix.Align(read, 2)
	if len(hits) == 0 {
		t.Fatal("reverse read not aligned")
	}
	if hits[0].Pos != 700 || hits[0].Strand != 1 {
		t.Errorf("best hit = %+v, want pos 700 reverse", hits[0])
	}
}

func TestAlignWithMismatches(t *testing.T) {
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "r", Length: 5000, Seed: 3}).Seq
	ix, _ := BuildIndex(ref, 16)
	read := append(dna.Sequence(nil), ref[2000:2100]...)
	read[50] = read[50] ^ 1 // one mismatch in the middle
	read[90] = read[90] ^ 2 // another in the tail
	hits := ix.Align(read, 2)
	if len(hits) == 0 {
		t.Fatal("2-mismatch read not aligned")
	}
	if hits[0].Pos != 2000 || hits[0].Mismatches != 2 {
		t.Errorf("best hit = %+v", hits[0])
	}
	// With budget 1, the placement is rejected.
	hits = ix.Align(read, 1)
	for _, h := range hits {
		if h.Pos == 2000 && h.Strand == 0 {
			t.Error("over-budget placement returned")
		}
	}
}

func TestAlignRepeatRegionMultiHit(t *testing.T) {
	// A reference with an exact repeated segment: reads from it must
	// report Hits > 1.
	base := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "r", Length: 3000, Seed: 4}).Seq
	ref := append(dna.Sequence(nil), base...)
	copy(ref[2000:2100], ref[500:600]) // plant the repeat
	ix, _ := BuildIndex(ref, 16)
	raws := []RawRead{{ID: 1, Seq: append(dna.Sequence(nil), ref[500:600]...), Quals: make([]dna.Quality, 100)}}
	out := AlignReads(ix, raws, 2)
	if len(out) != 1 {
		t.Fatal("repeat read unmapped")
	}
	if out[0].Hits < 2 {
		t.Errorf("repeat read Hits = %d, want >= 2", out[0].Hits)
	}
}

func TestAlignReadsEndToEnd(t *testing.T) {
	// Simulate reads, strip their placements, re-align, and compare with
	// the simulator's ground truth.
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "r", Length: 60000, Seed: 5})
	dip := seqsim.MakeDiploid(ref, seqsim.DefaultDiploidSpec(6))
	spec := seqsim.DefaultReadSpec(6, 7)
	spec.MaskFraction = 0
	spec.HotspotRate = 0
	truth, _ := seqsim.SampleReads(dip, spec)

	raws := make([]RawRead, len(truth))
	truthPos := map[int64]int{}
	truthStrand := map[int64]uint8{}
	for i := range truth {
		raws[i] = RawFromAligned(&truth[i])
		truthPos[truth[i].ID] = truth[i].Pos
		truthStrand[truth[i].ID] = truth[i].Strand
	}

	ix, err := BuildIndex(ref.Seq, 16)
	if err != nil {
		t.Fatal(err)
	}
	aligned := AlignReads(ix, raws, 2)

	mapped := len(aligned)
	correct := 0
	for i := range aligned {
		a := &aligned[i]
		if truthPos[a.ID] == a.Pos && truthStrand[a.ID] == a.Strand {
			correct++
		}
		if i > 0 && aligned[i-1].Pos > a.Pos {
			t.Fatal("aligner output not position sorted")
		}
	}
	mapRate := float64(mapped) / float64(len(truth))
	accuracy := float64(correct) / float64(mapped)
	if mapRate < 0.9 {
		t.Errorf("map rate = %.2f, want >= 0.9 (2%% error reads, 2-mismatch budget)", mapRate)
	}
	if accuracy < 0.97 {
		t.Errorf("placement accuracy = %.3f, want >= 0.97", accuracy)
	}
	t.Logf("mapped %.1f%%, placed correctly %.1f%%", 100*mapRate, 100*accuracy)
}

func TestRawFromAlignedRoundTrip(t *testing.T) {
	seq, _ := dna.ParseSequence("ACGTT")
	r := reads.AlignedRead{
		ID: 9, Pos: 3, Strand: 1,
		Bases: seq,
		Quals: []dna.Quality{1, 2, 3, 4, 5},
	}
	raw := RawFromAligned(&r)
	if raw.Seq.String() != "AACGT" {
		t.Errorf("raw seq = %s, want AACGT", raw.Seq)
	}
	if raw.Quals[0] != 5 || raw.Quals[4] != 1 {
		t.Errorf("raw quals = %v", raw.Quals)
	}
	// Forward reads copy through unchanged.
	r.Strand = 0
	raw = RawFromAligned(&r)
	if raw.Seq.String() != seq.String() || raw.Quals[0] != 1 {
		t.Error("forward conversion altered the read")
	}
}

// TestAlignReadsParallelMatchesSerial pins the byte-identity guarantee
// that exempts AlignWorkers from the job fingerprint: the sharded aligner
// must reproduce the serial output exactly at every worker count,
// including counts that don't divide the read count evenly and counts
// exceeding it.
func TestAlignReadsParallelMatchesSerial(t *testing.T) {
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "r", Length: 40000, Seed: 11})
	dip := seqsim.MakeDiploid(ref, seqsim.DefaultDiploidSpec(11))
	truth, _ := seqsim.SampleReads(dip, seqsim.DefaultReadSpec(5, 12))
	raws := make([]RawRead, len(truth))
	for i := range truth {
		raws[i] = RawFromAligned(&truth[i])
	}
	ix, err := BuildIndex(ref.Seq, 16)
	if err != nil {
		t.Fatal(err)
	}
	want := AlignReads(ix, raws, 2)
	for _, workers := range []int{0, 1, 2, 3, 4, 7, len(raws) + 5} {
		got := AlignReadsParallel(ix, raws, 2, workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d reads, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("workers=%d: read %d differs:\n got %+v\nwant %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestAlignReadsParallelPanicReachesCaller: the aligner's shards run on
// goroutines of their own, under gsnpd next to every other job, so a panic
// in alignRead there — an index with a zero seed length divides by it on
// every read, the helper's shard included — must come back on the caller as
// a *par.PanicError the scheduler can turn into one failed chromosome, not
// kill the process.
func TestAlignReadsParallelPanicReachesCaller(t *testing.T) {
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "r", Length: 4000, Seed: 3})
	ix, err := BuildIndex(ref.Seq, 16)
	if err != nil {
		t.Fatal(err)
	}
	raws := make([]RawRead, 8)
	for i := range raws {
		raws[i] = RawRead{ID: int64(i), Seq: ref.Seq[100*i : 100*i+50]}
	}
	ix.k = 0
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		AlignReadsParallel(ix, raws, 2, 2)
	}()
	pe, ok := recovered.(*par.PanicError)
	if !ok || !strings.Contains(string(pe.Stack), "alignRead") {
		t.Fatalf("recovered %T %v, want a *par.PanicError with the shard's stack", recovered, recovered)
	}
}

// TestAlignReadsNormalizesQuals: a read whose quality array disagrees with
// its sequence length (a malformed FASTQ record upstream tolerated under
// quarantine) must still come back with len(Bases) == len(Quals) — the
// invariant pipeline.ObsOf indexes on — on both strands.
func TestAlignReadsNormalizesQuals(t *testing.T) {
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "r", Length: 5000, Seed: 13}).Seq
	ix, _ := BuildIndex(ref, 16)
	fwd := append(dna.Sequence(nil), ref[100:180]...)
	rev := dna.Sequence(ref[300:380]).ReverseComplement()
	raws := []RawRead{
		{ID: 1, Seq: fwd, Quals: make([]dna.Quality, 10)},                    // too short
		{ID: 2, Seq: rev, Quals: make([]dna.Quality, 200)},                   // too long
		{ID: 3, Seq: append(dna.Sequence(nil), ref[500:580]...), Quals: nil}, // absent
	}
	for i := range raws {
		for j := range raws[i].Quals {
			raws[i].Quals[j] = dna.Quality(j % 40)
		}
	}
	out := AlignReads(ix, raws, 2)
	if len(out) != 3 {
		t.Fatalf("aligned %d of 3 reads", len(out))
	}
	for _, r := range out {
		if len(r.Bases) != len(r.Quals) {
			t.Errorf("read %d: len(Bases)=%d len(Quals)=%d", r.ID, len(r.Bases), len(r.Quals))
		}
	}
	// The reverse-strand read's padded qualities must be flipped like the
	// bases: input cycle j sits at output offset len-1-j.
	for _, r := range out {
		if r.ID != 2 {
			continue
		}
		if r.Strand != 1 {
			t.Fatalf("read 2 strand = %d, want 1", r.Strand)
		}
		for j := 0; j < len(r.Quals); j++ {
			if r.Quals[len(r.Quals)-1-j] != dna.Quality(j%40) {
				t.Fatalf("read 2 qual[%d] not reversed", j)
			}
		}
	}
}

func TestUnmappableReadDropped(t *testing.T) {
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "r", Length: 2000, Seed: 8}).Seq
	ix, _ := BuildIndex(ref, 16)
	junk := make(dna.Sequence, 100)
	for i := range junk {
		junk[i] = dna.Base(i % 4)
	}
	out := AlignReads(ix, []RawRead{{ID: 1, Seq: junk, Quals: make([]dna.Quality, 100)}}, 2)
	if len(out) != 0 {
		t.Errorf("junk read aligned: %+v", out)
	}
}
