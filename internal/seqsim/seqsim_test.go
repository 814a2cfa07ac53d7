package seqsim

import (
	"math"
	"testing"

	"gsnp/internal/dna"
	qreads "gsnp/internal/reads"
)

func TestGenerateReferenceDeterministic(t *testing.T) {
	a := GenerateReference(GenomeSpec{Name: "t", Length: 10000, Seed: 42})
	b := GenerateReference(GenomeSpec{Name: "t", Length: 10000, Seed: 42})
	if a.Seq.String() != b.Seq.String() {
		t.Error("same seed produced different references")
	}
	c := GenerateReference(GenomeSpec{Name: "t", Length: 10000, Seed: 43})
	if a.Seq.String() == c.Seq.String() {
		t.Error("different seeds produced identical references")
	}
}

func TestGenerateReferenceGC(t *testing.T) {
	ref := GenerateReference(GenomeSpec{Name: "t", Length: 200000, GC: 0.41, Seed: 1})
	gc := ref.Seq.GCContent()
	if math.Abs(gc-0.41) > 0.03 {
		t.Errorf("GC content = %v, want ~0.41", gc)
	}
	ref = GenerateReference(GenomeSpec{Name: "t", Length: 200000, GC: 0.7, Seed: 1})
	if gc := ref.Seq.GCContent(); math.Abs(gc-0.7) > 0.03 {
		t.Errorf("GC content = %v, want ~0.7", gc)
	}
}

func TestMakeDiploidRates(t *testing.T) {
	ref := GenerateReference(GenomeSpec{Name: "t", Length: 500000, Seed: 7})
	spec := DiploidSpec{HetRate: 1e-3, HomRate: 5e-4, TiTv: 2.1, KnownFraction: 0.3, Seed: 8}
	d := MakeDiploid(ref, spec)

	nHet, nHom, nKnown, nTi := 0, 0, 0, 0
	for _, v := range d.Variants {
		if v.Genotype.IsHomozygous() {
			nHom++
		} else {
			nHet++
		}
		if v.Known {
			nKnown++
		}
		a1, a2 := v.Genotype.Alleles()
		alt := a1
		if alt == v.Ref {
			alt = a2
		}
		if v.Ref.IsTransition(alt) {
			nTi++
		}
		if v.Ref != ref.Seq[v.Pos] {
			t.Fatalf("variant at %d records wrong ref base", v.Pos)
		}
		if v.Genotype.IsHomozygous() {
			if d.Hap1[v.Pos] == v.Ref || d.Hap2[v.Pos] == v.Ref {
				t.Fatalf("hom variant at %d not applied to both haplotypes", v.Pos)
			}
		} else if (d.Hap1[v.Pos] == v.Ref) == (d.Hap2[v.Pos] == v.Ref) {
			t.Fatalf("het variant at %d not applied to exactly one haplotype", v.Pos)
		}
	}
	total := len(d.Variants)
	if total == 0 {
		t.Fatal("no variants injected")
	}
	wantHet := 1e-3 * 500000
	if math.Abs(float64(nHet)-wantHet) > wantHet*0.25 {
		t.Errorf("het count = %d, want ~%.0f", nHet, wantHet)
	}
	wantHom := 5e-4 * 500000
	if math.Abs(float64(nHom)-wantHom) > wantHom*0.35 {
		t.Errorf("hom count = %d, want ~%.0f", nHom, wantHom)
	}
	tiFrac := float64(nTi) / float64(total)
	wantTi := 2.1 / 4.1
	if math.Abs(tiFrac-wantTi) > 0.08 {
		t.Errorf("transition fraction = %v, want ~%v", tiFrac, wantTi)
	}
	knownFrac := float64(nKnown) / float64(total)
	if math.Abs(knownFrac-0.3) > 0.08 {
		t.Errorf("known fraction = %v, want ~0.3", knownFrac)
	}
	// Non-variant sites match the reference on both haplotypes.
	varAt := map[int]bool{}
	for _, v := range d.Variants {
		varAt[v.Pos] = true
	}
	for pos := 0; pos < len(ref.Seq); pos += 997 {
		if !varAt[pos] && (d.Hap1[pos] != ref.Seq[pos] || d.Hap2[pos] != ref.Seq[pos]) {
			t.Fatalf("non-variant site %d differs from reference", pos)
		}
	}
}

func TestSampleReadsBasic(t *testing.T) {
	ref := GenerateReference(GenomeSpec{Name: "t", Length: 100000, Seed: 3})
	d := MakeDiploid(ref, DefaultDiploidSpec(4))
	spec := DefaultReadSpec(10, 5)
	reads, mask := SampleReads(d, spec)

	if len(reads) == 0 {
		t.Fatal("no reads sampled")
	}
	st := qreads.Stats(reads, len(ref.Seq))
	if math.Abs(st.Depth-10) > 1.5 {
		t.Errorf("depth = %v, want ~10", st.Depth)
	}
	if math.Abs(st.Coverage-0.88) > 0.05 {
		t.Errorf("coverage = %v, want ~0.88", st.Coverage)
	}

	// Reads sorted by position, in range, masked regions untouched.
	for i := range reads {
		r := &reads[i]
		if i > 0 && r.Pos < reads[i-1].Pos {
			t.Fatal("reads not sorted by position")
		}
		if r.Pos < 0 || r.Pos+len(r.Bases) > len(ref.Seq) {
			t.Fatalf("read %d out of range", i)
		}
		if len(r.Bases) != spec.ReadLen || len(r.Quals) != spec.ReadLen {
			t.Fatalf("read %d has wrong length", i)
		}
		if !mask[r.Pos] || !mask[r.Pos+len(r.Bases)-1] {
			t.Fatalf("read %d overlaps masked region", i)
		}
		for _, q := range r.Quals {
			if q >= dna.QMax {
				t.Fatalf("quality %d out of range", q)
			}
		}
	}
}

func TestSampleReadsErrorRate(t *testing.T) {
	ref := GenerateReference(GenomeSpec{Name: "t", Length: 200000, Seed: 11})
	// No variants: every mismatch against the reference is a sequencing
	// error.
	d := MakeDiploid(ref, DiploidSpec{Seed: 12})
	if len(d.Variants) != 0 {
		t.Fatal("zero-rate diploid has variants")
	}
	spec := DefaultReadSpec(8, 13)
	reads, _ := SampleReads(d, spec)
	var bases, errs int
	for i := range reads {
		r := &reads[i]
		for j, b := range r.Bases {
			bases++
			if b != ref.Seq[r.Pos+j] {
				errs++
			}
		}
	}
	rate := float64(errs) / float64(bases)
	// The staircase quality model (Q38 head to Q12 tail) yields an average
	// error rate around 1-3%, the paper's "error rate of around 2%".
	if rate < 0.005 || rate > 0.04 {
		t.Errorf("sequencing error rate = %v, want ~0.02", rate)
	}
}

func TestQualityRuns(t *testing.T) {
	// Consecutive cycles share quality values in runs (SegmentLen), the
	// property RLE-DICT compression exploits.
	ref := GenerateReference(GenomeSpec{Name: "t", Length: 50000, Seed: 21})
	d := MakeDiploid(ref, DefaultDiploidSpec(22))
	spec := DefaultReadSpec(5, 23)
	reads, _ := SampleReads(d, spec)
	r := &reads[0]
	runs := 1
	for c := 1; c < len(r.Quals); c++ {
		a := r.Quals[refOffset(r.Strand, len(r.Quals), c)]
		b := r.Quals[refOffset(r.Strand, len(r.Quals), c-1)]
		if a != b {
			runs++
		}
	}
	if runs > len(r.Quals)/spec.SegmentLen+2 {
		t.Errorf("quality string has %d runs over %d cycles; expected long runs", runs, len(r.Quals))
	}
}

func TestCycleMapping(t *testing.T) {
	r := qreads.AlignedRead{Strand: 0, Bases: make(dna.Sequence, 100)}
	if r.Cycle(0) != 0 || r.Cycle(99) != 99 {
		t.Error("forward cycle mapping wrong")
	}
	r.Strand = 1
	if r.Cycle(0) != 99 || r.Cycle(99) != 0 {
		t.Error("reverse cycle mapping wrong")
	}
}

func TestMultiHitRate(t *testing.T) {
	ref := GenerateReference(GenomeSpec{Name: "t", Length: 100000, Seed: 31})
	d := MakeDiploid(ref, DefaultDiploidSpec(32))
	spec := DefaultReadSpec(10, 33)
	reads, _ := SampleReads(d, spec)
	multi := 0
	for i := range reads {
		if reads[i].Hits > 1 {
			multi++
		}
	}
	frac := float64(multi) / float64(len(reads))
	if math.Abs(frac-spec.MultiHitRate) > 0.03 {
		t.Errorf("multi-hit fraction = %v, want ~%v", frac, spec.MultiHitRate)
	}
}

func TestScaledHumanGenome(t *testing.T) {
	specs := ScaledHumanGenome(1000, 99)
	if len(specs) != 24 {
		t.Fatalf("chromosome count = %d, want 24", len(specs))
	}
	if specs[0].Name != "chr1" || specs[20].Name != "chr21" {
		t.Error("chromosome order wrong")
	}
	if specs[0].Length != 247000 {
		t.Errorf("chr1 length = %d, want 247000", specs[0].Length)
	}
	if specs[20].Length != 47000 {
		t.Errorf("chr21 length = %d, want 47000", specs[20].Length)
	}
	// chr1 is the largest.
	for _, s := range specs {
		if s.Length > specs[0].Length {
			t.Errorf("%s larger than chr1", s.Name)
		}
	}
}

func TestBuildDataset(t *testing.T) {
	spec := ChromosomeSpec{Name: "chrT", Length: 30000, Depth: 9.6, MaskFraction: 0.32, Seed: 5}
	ds := BuildDataset(spec)
	if ds.Ref == nil || ds.Diploid == nil || len(ds.Reads) == 0 {
		t.Fatal("dataset incomplete")
	}
	st := ds.Stats()
	if math.Abs(st.Coverage-0.68) > 0.06 {
		t.Errorf("coverage = %v, want ~0.68 (Table II chr21)", st.Coverage)
	}
	if math.Abs(st.Depth-9.6) > 1.5 {
		t.Errorf("depth = %v, want ~9.6", st.Depth)
	}
}
