package pipeline

import (
	"io"
	"math"
	"testing"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/reads"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

func TestMemSource(t *testing.T) {
	rs := []reads.AlignedRead{{ID: 1}, {ID: 2}}
	src := MemSource(rs)
	for pass := 0; pass < 2; pass++ {
		it, err := src.Open()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			r, err := it.Next()
			if err != nil || r.ID != int64(i+1) {
				t.Fatalf("pass %d read %d: %v %v", pass, i, r.ID, err)
			}
		}
		if _, err := it.Next(); err != io.EOF {
			t.Fatalf("pass %d: want EOF, got %v", pass, err)
		}
	}
}

func TestObsOf(t *testing.T) {
	seq, _ := dna.ParseSequence("ACGT")
	r := reads.AlignedRead{
		Pos: 100, Strand: 1, Hits: 1,
		Bases: seq,
		Quals: []dna.Quality{10, 20, 30, 40},
	}
	o, ok := ObsOf(&r, 101)
	if !ok {
		t.Fatal("covered position reported uncovered")
	}
	if o.Base != dna.C || o.Qual != 20 {
		t.Errorf("obs = %+v", o)
	}
	// Reverse strand: reference offset 1 is cycle len-1-1 = 2.
	if o.Coord != 2 {
		t.Errorf("coord = %d, want 2", o.Coord)
	}
	if o.Strand != 1 || !o.Uniq {
		t.Errorf("strand/uniq wrong: %+v", o)
	}
	if _, ok := ObsOf(&r, 99); ok {
		t.Error("position before read reported covered")
	}
	if _, ok := ObsOf(&r, 104); ok {
		t.Error("position after read reported covered")
	}
	r.Hits = 3
	if o, _ := ObsOf(&r, 100); o.Uniq {
		t.Error("multi-hit read reported unique")
	}
}

func TestSiteCounts(t *testing.T) {
	var c SiteCounts
	c.Add(Obs{Base: dna.A, Qual: 30, Uniq: true})
	c.Add(Obs{Base: dna.A, Qual: 31, Uniq: false})
	c.Add(Obs{Base: dna.G, Qual: 20, Uniq: true})
	if c.Depth != 3 || c.Count[dna.A] != 2 || c.Uniq[dna.A] != 1 || c.QualSum[dna.A] != 61 {
		t.Errorf("counts wrong: %+v", c)
	}
	best, second, hb, hs := c.BestSecond()
	if !hb || !hs || best != dna.A || second != dna.G {
		t.Errorf("best/second = %v/%v (%v,%v)", best, second, hb, hs)
	}
	if c.AvgQual(dna.A) != 31 { // round(61/2) = 31
		t.Errorf("AvgQual(A) = %d", c.AvgQual(dna.A))
	}
	if c.AvgQual(dna.T) != 0 {
		t.Error("AvgQual of unobserved base non-zero")
	}
	c.Reset()
	if c.Depth != 0 || c.Count[dna.A] != 0 {
		t.Error("Reset incomplete")
	}
}

func TestBestSecondEdgeCases(t *testing.T) {
	var c SiteCounts
	_, _, hb, hs := c.BestSecond()
	if hb || hs {
		t.Error("empty counts reported bases")
	}
	c.Add(Obs{Base: dna.T, Qual: 1})
	best, _, hb, hs := c.BestSecond()
	if !hb || hs || best != dna.T {
		t.Error("single-base site wrong")
	}
	// Tie: smaller base code wins deterministically.
	var c2 SiteCounts
	c2.Add(Obs{Base: dna.G, Qual: 1})
	c2.Add(Obs{Base: dna.C, Qual: 1})
	best, second, _, _ := c2.BestSecond()
	if best != dna.C || second != dna.G {
		t.Errorf("tie broken wrong: %v/%v", best, second)
	}
}

func TestBuildRowHomRef(t *testing.T) {
	var c SiteCounts
	var aq [4][]float64
	for i := 0; i < 8; i++ {
		c.Add(Obs{Base: dna.A, Qual: 35, Uniq: true})
		aq[dna.A] = append(aq[dna.A], 35)
	}
	var tl [bayes.TypeLikelySize]float64
	for i := range tl {
		tl[i] = -100
	}
	tl[dna.HomozygousGenotype(dna.A)] = -1
	pr := bayes.DefaultPriors()
	lp := pr.LogPriors(dna.A, nil)
	call := bayes.Posterior(&tl, &lp)

	var row snpio.Row
	snp := BuildRow(&row, &RowInputs{
		Chr: "c", Pos: 41, Ref: dna.A, Call: call, Counts: &c,
		AlleleQuals: &aq, MeanDepth: 8,
	})
	if row.Pos != 42 || row.Ref != 'A' || row.Genotype != 'A' {
		t.Errorf("identity columns wrong: %+v", row)
	}
	if row.BestBase != 'A' || row.CountBest != 8 || row.AvgQualBest != 35 || row.CountUniqBest != 8 {
		t.Errorf("best-base columns wrong: %+v", row)
	}
	if row.SecondBase != 'N' || row.CountSecond != 0 {
		t.Errorf("second-base columns wrong: %+v", row)
	}
	if row.RankSumP != 1 {
		t.Errorf("hom call rank-sum = %v, want 1", row.RankSumP)
	}
	if row.CopyNum != 1 {
		t.Errorf("copy number = %v, want 1", row.CopyNum)
	}
	if row.IsDbSNP != 0 {
		t.Error("dbSNP flag set without known record")
	}
	if row.IsSNP() || snp {
		t.Error("hom-ref row reported as SNP")
	}
}

func TestBuildRowHet(t *testing.T) {
	var c SiteCounts
	var aq [4][]float64
	for i := 0; i < 5; i++ {
		c.Add(Obs{Base: dna.A, Qual: 35, Uniq: true})
		aq[dna.A] = append(aq[dna.A], 35)
	}
	for i := 0; i < 4; i++ {
		c.Add(Obs{Base: dna.G, Qual: 33, Uniq: true})
		aq[dna.G] = append(aq[dna.G], 33)
	}
	var tl [bayes.TypeLikelySize]float64
	for i := range tl {
		tl[i] = -100
	}
	tl[dna.MakeGenotype(dna.A, dna.G)] = -1
	pr := bayes.DefaultPriors()
	lp := pr.LogPriors(dna.A, nil)
	call := bayes.Posterior(&tl, &lp)

	known := &bayes.KnownSNP{Validated: true}
	var row snpio.Row
	snp := BuildRow(&row, &RowInputs{
		Chr: "c", Pos: 0, Ref: dna.A, Call: call, Counts: &c,
		AlleleQuals: &aq, MeanDepth: 9, Known: known,
	})
	if row.Genotype != 'R' {
		t.Errorf("genotype = %c, want R", row.Genotype)
	}
	if row.BestBase != 'A' || row.SecondBase != 'G' {
		t.Errorf("best/second = %c/%c", row.BestBase, row.SecondBase)
	}
	if row.CountSecond != 4 || row.AvgQualSecond != 33 {
		t.Errorf("second columns wrong: %+v", row)
	}
	if row.RankSumP >= 1 || row.RankSumP <= 0 {
		t.Errorf("het rank-sum p = %v, want in (0,1)", row.RankSumP)
	}
	if row.IsDbSNP != 1 {
		t.Error("dbSNP flag missing")
	}
	if !row.IsSNP() || !snp {
		t.Error("het row not reported as SNP")
	}
}

func TestBuildRowNoCoverage(t *testing.T) {
	var c SiteCounts
	var tl [bayes.TypeLikelySize]float64
	pr := bayes.DefaultPriors()
	lp := pr.LogPriors(dna.T, nil)
	call := bayes.Posterior(&tl, &lp)
	// Written over a stale row: every column is rebuilt.
	row := snpio.Row{Chr: "old", Pos: 1, BestBase: 'A', AvgQualBest: 9, CountBest: 3, SecondBase: 'C',
		CountSecond: 2, RankSumP: 0.5, CopyNum: 2, IsDbSNP: 1}
	snp := BuildRow(&row, &RowInputs{Chr: "c", Pos: 7, Ref: dna.T, Call: call, Counts: &c, MeanDepth: 10})
	want := snpio.Row{Chr: "c", Pos: 8, Ref: 'T', Genotype: 'T', Quality: row.Quality, BestBase: 'T',
		SecondBase: 'N', RankSumP: 1}
	if row != want {
		t.Errorf("row over a stale one = %+v, want %+v", row, want)
	}
	if row.BestBase != 'T' || row.Depth != 0 || row.Genotype != 'T' {
		t.Errorf("zero-coverage row wrong: %+v", row)
	}
	// With no evidence the prior dominates: hom-ref call.
	if row.IsSNP() || snp {
		t.Error("zero-coverage site called as SNP")
	}
}

func TestCalibrationPass(t *testing.T) {
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{Name: "t", Length: 20000, Depth: 8, Seed: 3})
	var sunk int
	cal, mean, err := CalibrationPass(MemSource(ds.Reads), ds.Ref.Seq, func(r *reads.AlignedRead) error {
		sunk++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sunk != len(ds.Reads) {
		t.Errorf("sink saw %d reads, want %d", sunk, len(ds.Reads))
	}
	st := ds.Stats()
	if mean < st.Depth*0.95 || mean > st.Depth*1.05 {
		t.Errorf("mean depth = %v, want ~%v", mean, st.Depth)
	}
	if cal.Observations() == 0 {
		t.Error("no calibration observations")
	}
	// The calibrated matrix should assign high probability to matching
	// bases at high quality.
	p := cal.Build()
	if got := p.At(38, 5, dna.A, dna.A); got < 0.9 {
		t.Errorf("P(A|A,Q38) = %v, want > 0.9", got)
	}
}

func TestWindower(t *testing.T) {
	mk := func(pos, n int) reads.AlignedRead {
		return reads.AlignedRead{Pos: pos, Bases: make(dna.Sequence, n), Quals: make([]dna.Quality, n)}
	}
	rs := []reads.AlignedRead{mk(0, 10), mk(5, 10), mk(95, 10), mk(99, 10), mk(100, 10), mk(250, 10)}
	it, _ := MemSource(rs).Open()
	w := NewWindower(it)

	w0, err := w.AppendReads(nil, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(w0) != 4 { // pos 0, 5, 95, 99
		t.Fatalf("window 0 has %d reads, want 4", len(w0))
	}
	w1, err := w.AppendReads(nil, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	// 95 and 99 span the boundary; 100 starts inside.
	if len(w1) != 3 {
		t.Fatalf("window 1 has %d reads, want 3: %+v", len(w1), w1)
	}
	w2, err := w.AppendReads(nil, 200, 300)
	if err != nil {
		t.Fatal(err)
	}
	if len(w2) != 1 || w2[0].Pos != 250 {
		t.Fatalf("window 2 wrong: %+v", w2)
	}
	w3, err := w.AppendReads(nil, 300, 400)
	if err != nil || len(w3) != 0 {
		t.Fatalf("window 3 should be empty: %v %v", w3, err)
	}
}

func TestWindowerCoversAllObservations(t *testing.T) {
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{Name: "t", Length: 5000, Depth: 6, Seed: 9})
	it, _ := MemSource(ds.Reads).Open()
	w := NewWindower(it)
	const win = 333
	total := 0
	for start := 0; start < 5000; start += win {
		end := start + win
		if end > 5000 {
			end = 5000
		}
		rs, err := w.AppendReads(nil, start, end)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rs {
			r := &rs[i]
			for pos := start; pos < end; pos++ {
				if _, ok := ObsOf(r, pos); ok {
					total++
				}
			}
		}
	}
	var want int
	for i := range ds.Reads {
		want += len(ds.Reads[i].Bases)
	}
	if total != want {
		t.Errorf("windowed observations = %d, want %d", total, want)
	}
}

// TestCalibrateMatchesObsOf holds Calibrate's inlined observation loop to
// the rule ObsOf defines — which bases of a read count, at which cycle —
// on reads of both strands, reads hanging over either end of the reference,
// a read beyond it and reads longer than the model's cycle range, and checks that a recycled calibration carries
// nothing over from its previous input.
func TestCalibrateMatchesObsOf(t *testing.T) {
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{Name: "t", Length: 5000, Depth: 6, Seed: 9})
	ref := ds.Ref.Seq
	rs := append([]reads.AlignedRead(nil), ds.Reads...)
	for _, i := range []int{0, 1, len(rs) - 2, len(rs) - 1} {
		r := rs[i]
		r.Strand = uint8(i & 1)
		r.Pos = -len(r.Bases) / 3
		rs = append(rs, r)
		r.Pos = len(ref) - len(r.Bases)/2
		rs = append(rs, r)
		r.Pos = len(ref) + 10
		rs = append(rs, r)
	}
	// Longer than the model's 256 cycles: the overhang is not observed.
	for strand := uint8(0); strand < 2; strand++ {
		long := reads.AlignedRead{Pos: 40, Strand: strand, Hits: 1}
		for len(long.Bases) < bayes.MaxReadLen+44 {
			long.Bases = append(long.Bases, rs[0].Bases...)
			long.Quals = append(long.Quals, rs[0].Quals...)
		}
		rs = append(rs, long)
	}

	want := bayes.NewCalibration()
	var bases int64
	for i := range rs {
		for off := range rs[i].Bases {
			pos := rs[i].Pos + off
			if pos < 0 || pos >= len(ref) {
				continue
			}
			if o, ok := ObsOf(&rs[i], pos); ok {
				want.Observe(dna.ClampQuality(int(o.Qual)), int(o.Coord), ref[pos], o.Base)
				bases++
			}
		}
	}

	cal := bayes.NewCalibration()
	if _, _, err := Calibrate(cal, MemSource(ds.Reads[:len(ds.Reads)/2]), ref, nil); err != nil {
		t.Fatal(err)
	}
	mean, _, err := Calibrate(cal, MemSource(rs), ref, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cal.Observations() != want.Observations() || cal.Observations() != uint64(bases) {
		t.Fatalf("Observations = %d, ObsOf rule gives %d", cal.Observations(), bases)
	}
	if wantMean := float64(bases) / float64(len(ref)); mean != wantMean {
		t.Errorf("mean depth = %v, want %v", mean, wantMean)
	}
	got, ref2 := cal.Build(), want.Build()
	for i := range ref2 {
		if math.Float64bits(got[i]) != math.Float64bits(ref2[i]) {
			t.Fatalf("p_matrix[%d] = %v, ObsOf rule gives %v", i, got[i], ref2[i])
		}
	}
}

// TestKnownInMatchesMap holds the run's list of known sites to the map it
// is built from: for every window [start, end) — empty, one site, across
// the ends of the chromosome — KnownIn yields exactly the positions a
// probe of each site finds, in order, with the same records; a nil record
// is no record, as it is to a probe.
func TestKnownInMatchesMap(t *testing.T) {
	known := snpio.KnownSNPs{0: {}, 1: {}, 7: {Validated: true}, 8: nil, 40: {}, 41: {}, 99: {}}
	st := &RunState{KnownSites: listKnown(nil, known)}
	for start := -2; start <= 102; start++ {
		for end := start; end <= 102; end += 1 + (end-start)/4 {
			var want []KnownSite
			for pos := start; pos < end; pos++ {
				if snp := known[pos]; snp != nil {
					want = append(want, KnownSite{pos, snp})
				}
			}
			got := st.KnownIn(start, end)
			if len(got) != len(want) {
				t.Fatalf("KnownIn(%d, %d) = %v, want %v", start, end, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("KnownIn(%d, %d) = %v, want %v", start, end, got, want)
				}
			}
		}
	}
	if got := (&RunState{}).KnownIn(0, 10); len(got) != 0 {
		t.Errorf("no prior file: KnownIn = %v", got)
	}
}
