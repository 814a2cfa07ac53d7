package soapsnp

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"testing"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/pipeline"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

// testDataset builds a small deterministic workload.
func testDataset(t *testing.T, sites int, depth float64, seed int64) *seqsim.Dataset {
	t.Helper()
	return seqsim.BuildDataset(seqsim.ChromosomeSpec{
		Name: "chrT", Length: sites, Depth: depth, MaskFraction: 0.1, Seed: seed,
	})
}

// knownFromDataset builds the prior-file records for a dataset's known
// variants.
func knownFromDataset(ds *seqsim.Dataset) snpio.KnownSNPs {
	known := snpio.KnownSNPs{}
	for _, v := range ds.Diploid.Variants {
		if !v.Known {
			continue
		}
		a1, a2 := v.Genotype.Alleles()
		rec := &bayes.KnownSNP{Validated: true}
		rec.Freq[a1] += 0.5
		rec.Freq[a2] += 0.5
		known[v.Pos] = rec
	}
	return known
}

// startRun is the one place these tests start a run, the way every caller of
// the engine does: the shared settings in a pipeline.Config — the data set
// fills the chromosome, the reference and the prior file, the caller the
// rest — the kernel's own in the Engine, pipeline.Run over both.
func startRun(ctx context.Context, eng *Engine, ds *seqsim.Dataset, run pipeline.Config, w io.Writer) (*pipeline.Report, error) {
	run.Chr, run.Ref, run.Known = ds.Spec.Name, ds.Ref.Seq, knownFromDataset(ds)
	return pipeline.Run(ctx, run, pipeline.MemSource(ds.Reads), w, eng)
}

func runEngine(t *testing.T, ds *seqsim.Dataset, window int) (*pipeline.Report, []snpio.Row, *Engine) {
	t.Helper()
	eng := New(Config{})
	var buf bytes.Buffer
	rep, err := startRun(context.Background(), eng, ds, pipeline.Config{Window: window}, &buf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	rows, err := snpio.ReadResults(&buf)
	if err != nil {
		t.Fatalf("ReadResults: %v", err)
	}
	return rep, rows, eng
}

func TestRunProducesRowPerSite(t *testing.T) {
	ds := testDataset(t, 3000, 8, 11)
	rep, rows, _ := runEngine(t, ds, 512)
	if len(rows) != 3000 {
		t.Fatalf("rows = %d, want 3000", len(rows))
	}
	if rep.Sites != 3000 {
		t.Errorf("Sites = %d", rep.Sites)
	}
	for i, r := range rows {
		if r.Pos != int64(i)+1 {
			t.Fatalf("row %d has position %d", i, r.Pos)
		}
		if r.Chr != "chrT" {
			t.Fatalf("row %d chromosome %q", i, r.Chr)
		}
		if want := ds.Ref.Seq[i].Byte(); r.Ref != want {
			t.Fatalf("row %d reference %c, want %c", i, r.Ref, want)
		}
	}
}

func TestCallAccuracy(t *testing.T) {
	ds := testDataset(t, 20000, 12, 21)
	_, rows, _ := runEngine(t, ds, 4000)

	truth := map[int]dna.Genotype{}
	for _, v := range ds.Diploid.Variants {
		truth[v.Pos] = v.Genotype
	}
	covered := func(pos int) bool {
		// Only judge sites with usable coverage.
		return rows[pos].Depth >= 4
	}

	var tp, fn, fp int
	for pos, g := range truth {
		if !covered(pos) {
			continue
		}
		if rows[pos].Genotype == g.IUPAC() {
			tp++
		} else {
			fn++
		}
	}
	for i := range rows {
		if !rows[i].IsSNP() {
			continue
		}
		if _, ok := truth[i]; !ok && covered(i) {
			fp++
		}
	}
	if tp == 0 {
		t.Fatal("no true variants recovered")
	}
	sens := float64(tp) / float64(tp+fn)
	if sens < 0.75 {
		t.Errorf("sensitivity = %.2f (tp=%d fn=%d), want >= 0.75", sens, tp, fn)
	}
	// False positives should be rare relative to genome size.
	if fp > len(rows)/500 {
		t.Errorf("false positives = %d over %d sites", fp, len(rows))
	}
	t.Logf("tp=%d fn=%d fp=%d sensitivity=%.2f", tp, fn, fp, sens)
}

func TestWindowSizeInvariance(t *testing.T) {
	// The output must not depend on the window size.
	ds := testDataset(t, 2500, 7, 31)
	_, rows1, _ := runEngine(t, ds, 250)
	_, rows2, _ := runEngine(t, ds, 2500)
	_, rows3, _ := runEngine(t, ds, 333)
	if len(rows1) != len(rows2) || len(rows1) != len(rows3) {
		t.Fatal("row counts differ across window sizes")
	}
	for i := range rows1 {
		if rows1[i] != rows2[i] || rows1[i] != rows3[i] {
			t.Fatalf("row %d differs across window sizes:\n%+v\n%+v\n%+v", i, rows1[i], rows2[i], rows3[i])
		}
	}
}

func TestTimesPopulated(t *testing.T) {
	ds := testDataset(t, 2000, 8, 41)
	rep, _, _ := runEngine(t, ds, 500)
	tm := rep.Times
	if tm.Likeli() <= 0 || tm.Recycle <= 0 || tm.CalP <= 0 || tm.Output <= 0 {
		t.Errorf("component times missing: %v", tm)
	}
	if tm.Total() <= 0 {
		t.Error("total time non-positive")
	}
	if tm.String() == "" {
		t.Error("Times.String empty")
	}
	// The dense design makes likelihood the dominant component (Table I).
	if tm.Likeli() < tm.Post {
		t.Errorf("likelihood (%v) not dominating posterior (%v)", tm.Likeli(), tm.Post)
	}
}

func TestSparsityHistogram(t *testing.T) {
	ds := testDataset(t, 4000, 9.6, 51)
	rep, _, _ := runEngine(t, ds, 1000)
	var sites, weighted int64
	for k, c := range rep.NonZeroHist {
		sites += c
		weighted += int64(k) * c
	}
	if sites != 4000 {
		t.Fatalf("histogram covers %d sites, want 4000", sites)
	}
	mean := float64(weighted) / float64(sites)
	// Depth 9.6 with ~90% coverage: mean non-zero count near the depth and
	// far below |base_occ| (the ~0.08% sparsity of Section IV-B).
	if mean < 3 || mean > 15 {
		t.Errorf("mean non-zero count = %.1f, want ~9", mean)
	}
	frac := mean / float64(bayes.BaseOccSize)
	if frac > 0.001 {
		t.Errorf("non-zero fraction %.5f%% too high", 100*frac)
	}
}

func TestDenseLikelihoodMatchesDirectComputation(t *testing.T) {
	// Single-observation site: the likelihood must equal one direct
	// Algorithm 2 evaluation per genotype.
	tables := bayes.BuildTables(bayes.NewPMatrixFromPhred())
	baseOcc := make([]uint8, bayes.BaseOccSize)
	obsBase, obsScore, obsCoord, obsStrand := dna.G, dna.Quality(37), 12, 1
	baseOcc[bayes.BaseOccIndex(obsBase, obsScore, obsCoord, obsStrand)] = 1

	scratch := NewLikeliScratch(100)
	var tl [bayes.TypeLikelySize]float64
	nz := DenseLikelihood(baseOcc, tables, &scratch, &tl)
	if nz != 1 {
		t.Fatalf("non-zero count = %d, want 1", nz)
	}
	qadj := tables.Adjust.Adjust(obsScore, 1)
	for a1 := dna.Base(0); a1 < 4; a1++ {
		for a2 := a1; a2 < 4; a2++ {
			want := bayes.LikelyUpdate(tables.P, qadj, obsCoord, obsBase, a1, a2)
			if got := tl[a1<<2|a2]; got != want {
				t.Errorf("tl[%v%v] = %v, want %v", a1, a2, got, want)
			}
		}
	}
}

func TestDenseLikelihoodDepthAdjustment(t *testing.T) {
	// Two observations at the same coordinate: the second must be damped
	// by the adjust table (dep count 2).
	tables := bayes.BuildTables(bayes.NewPMatrixFromPhred())
	baseOcc := make([]uint8, bayes.BaseOccSize)
	baseOcc[bayes.BaseOccIndex(dna.A, 40, 5, 0)] = 2

	scratch := NewLikeliScratch(100)
	var tl [bayes.TypeLikelySize]float64
	DenseLikelihood(baseOcc, tables, &scratch, &tl)

	q1 := tables.Adjust.Adjust(40, 1)
	q2 := tables.Adjust.Adjust(40, 2)
	if q1 == q2 {
		t.Fatal("adjust table did not damp the stacked observation")
	}
	want := bayes.LikelyUpdate(tables.P, q1, 5, dna.A, dna.A, dna.A) +
		bayes.LikelyUpdate(tables.P, q2, 5, dna.A, dna.A, dna.A)
	if got := tl[dna.HomozygousGenotype(dna.A)]; got != want {
		t.Errorf("stacked likelihood = %v, want %v", got, want)
	}
}

func TestDenseLikelihoodCanonicalOrder(t *testing.T) {
	// Higher scores are consumed before lower ones (descending score
	// loop): with two observations of the same base at the same
	// coordinate but different scores, the higher score must see dep
	// count 1.
	tables := bayes.BuildTables(bayes.NewPMatrixFromPhred())
	baseOcc := make([]uint8, bayes.BaseOccSize)
	baseOcc[bayes.BaseOccIndex(dna.C, 50, 8, 0)] = 1
	baseOcc[bayes.BaseOccIndex(dna.C, 20, 8, 0)] = 1

	scratch := NewLikeliScratch(100)
	var tl [bayes.TypeLikelySize]float64
	DenseLikelihood(baseOcc, tables, &scratch, &tl)

	want := bayes.LikelyUpdate(tables.P, tables.Adjust.Adjust(50, 1), 8, dna.C, dna.C, dna.C) +
		bayes.LikelyUpdate(tables.P, tables.Adjust.Adjust(20, 2), 8, dna.C, dna.C, dna.C)
	if got := tl[dna.HomozygousGenotype(dna.C)]; got != want {
		t.Errorf("order-dependent likelihood = %v, want %v", got, want)
	}
}

func TestNoCoverageRowsAreHomRef(t *testing.T) {
	ds := testDataset(t, 2000, 5, 61)
	_, rows, _ := runEngine(t, ds, 400)
	zero := 0
	for i, r := range rows {
		if r.Depth == 0 {
			zero++
			if r.IsSNP() {
				t.Fatalf("zero-coverage site %d called as SNP", i)
			}
		}
	}
	if zero == 0 {
		t.Skip("mask produced no zero-coverage sites")
	}
}

func TestDbSNPColumn(t *testing.T) {
	ds := testDataset(t, 5000, 8, 71)
	known := knownFromDataset(ds)
	if len(known) == 0 {
		t.Skip("no known variants in dataset")
	}
	_, rows, _ := runEngine(t, ds, 1000)
	for pos := range known {
		if rows[pos].IsDbSNP != 1 {
			t.Fatalf("known site %d missing dbSNP flag", pos)
		}
	}
}

func TestMultithreadedLikelihoodIdenticalOutput(t *testing.T) {
	// The paper's multi-threaded SOAPsnp port must call exactly the same
	// genotypes as the single-threaded baseline.
	ds := testDataset(t, 4000, 9, 81)
	_, want, _ := runEngine(t, ds, 900)
	var buf bytes.Buffer
	rep, err := startRun(context.Background(), New(Config{Threads: 8}), ds, pipeline.Config{Window: 900}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := snpio.ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("row counts differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d differs under Threads=8", i)
		}
	}
	var sites int64
	for _, c := range rep.NonZeroHist {
		sites += c
	}
	if sites != 4000 {
		t.Errorf("parallel histogram covers %d sites", sites)
	}
}

// TestRunContextWarmScratch is the dense engine's half of the recycle
// contract gsnp pins with TestRunContextWarmArena: an engine that has served
// one run keeps its p_matrix and its window buffers, the Scratch handed to
// both runs keeps the driver's storage (calibration counters, read buffer,
// output buffer), and all of it is rebuilt in place. The bytes of a run on
// a warm engine and scratch equal a fresh pair's, and the
// warm run allocates a small fraction of the 5 MB of counters, matrix and
// output buffer a run used to allocate for itself.
func TestRunContextWarmScratch(t *testing.T) {
	first := testDataset(t, 3000, 12, 71)
	second := testDataset(t, 2000, 7, 72)
	for _, out := range []pipeline.Codec{pipeline.CodecRows, pipeline.CodecVCF} {
		run := func(eng *Engine, sc *pipeline.Scratch, ds *seqsim.Dataset) []byte {
			var buf bytes.Buffer
			if _, err := startRun(context.Background(), eng, ds, pipeline.Config{Window: 800, Output: out, Scratch: sc}, &buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		want := run(New(Config{}), nil, second)
		warm, sc := New(Config{}), new(pipeline.Scratch)
		run(warm, sc, first)
		if got := run(warm, sc, second); !bytes.Equal(got, want) {
			t.Errorf("codec %d: output of an engine warmed by another chromosome differs from a fresh engine's", out)
		}
	}

	eng, warm := New(Config{}), pipeline.Config{Window: 800, Scratch: new(pipeline.Scratch)}
	run := func() {
		if _, err := startRun(context.Background(), eng, first, warm, io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a run on a warm engine allocated %d bytes, want < 1 MB", got)
	} else {
		t.Logf("warm run: %d bytes in %d allocations", got, after.Mallocs-before.Mallocs)
	}
}

// TestTouchWindowWritesOnlyNewPages: the engine write-touches a page of
// base_occ once in its life. A chromosome shorter than the window touches
// its own sites' pages, a longer one on the same engine only the pages past
// them — written, so a sentinel there is cleared, while one in the pages
// already touched survives — a shorter one after it none, and only a window
// of another size, a new allocation, starts over. The reused engine's rows
// are a fresh engine's.
func TestTouchWindowWritesOnlyNewPages(t *testing.T) {
	const window = 64
	short, long := testDataset(t, 20, 8, 31), testDataset(t, 50, 8, 32)
	eng := New(Config{})
	run := func(eng *Engine, ds *seqsim.Dataset, window int) []byte {
		t.Helper()
		var buf bytes.Buffer
		if _, err := startRun(context.Background(), eng, ds, pipeline.Config{Window: window}, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	wantTouched := func(step string, sites int) {
		t.Helper()
		if eng.touched != sites*bayes.BaseOccSize {
			t.Errorf("%s: %d bytes of base_occ touched, want %d sites' (%d)", step, eng.touched, sites, sites*bayes.BaseOccSize)
		}
	}

	run(eng, short, window)
	wantTouched("short chromosome", 20)

	for i := 0; i < 50*bayes.BaseOccSize; i += pageBytes {
		eng.baseOcc[i] = 1
	}
	eng.touchWindow(50)
	for i := 0; i < 50*bayes.BaseOccSize; i += pageBytes {
		head := i < 20*bayes.BaseOccSize
		if written := eng.baseOcc[i] == 0; written == head {
			t.Fatalf("page at byte %d: written %t, want %t (the short chromosome touched it: %t)", i, written, !head, head)
		}
	}
	clear(eng.baseOcc)
	wantTouched("touching 50 sites", 50)

	if got, want := run(eng, long, window), run(New(Config{}), long, window); !bytes.Equal(got, want) {
		t.Error("rows of the reused engine differ from a fresh engine's")
	}
	wantTouched("long chromosome", 50)
	run(eng, short, window)
	wantTouched("short chromosome again", 50)
	run(eng, long, 40)
	wantTouched("long chromosome in a smaller window", 40)
}
