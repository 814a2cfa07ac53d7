package gsnp

import (
	"bytes"
	"context"
	"io"
	"testing"
	"testing/quick"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
	"gsnp/internal/soapsnp"
)

func testDataset(t *testing.T, sites int, depth float64, seed int64) *seqsim.Dataset {
	t.Helper()
	return seqsim.BuildDataset(seqsim.ChromosomeSpec{
		Name: "chrT", Length: sites, Depth: depth, MaskFraction: 0.1, Seed: seed,
	})
}

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

// testReport is what a test run leaves behind: the driver's report and the
// device-side measurements read off the engine.
type testReport struct {
	*pipeline.Report
	Device Report
}

// startRun is the one place these tests start a run, the way every caller of
// the engine does: the shared settings in a pipeline.Config — the data set
// fills the chromosome, the reference and the prior file, an arena lends the
// driver its scratch (as genomejob.Call does), the caller sets the rest — the
// kernel's own in the engine k, pipeline.Run over both.
func startRun(ctx context.Context, k pipeline.Kernel, ds *seqsim.Dataset, run pipeline.Config, src pipeline.Source, w io.Writer) (*pipeline.Report, error) {
	run.Chr, run.Ref, run.Known = ds.Spec.Name, ds.Ref.Seq, knownFromDataset(ds)
	if eng, ok := k.(*Engine); ok && eng.cfg.Arena != nil {
		run.Scratch = eng.cfg.Arena.Scratch()
	}
	return pipeline.Run(ctx, run, src, w, k)
}

// runGSNP executes a fresh engine over the data set's reads and returns the
// reports plus raw output.
func runGSNP(t *testing.T, ds *seqsim.Dataset, run pipeline.Config, cfg Config) (*testReport, []byte) {
	t.Helper()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep, err := startRun(context.Background(), eng, ds, run, pipeline.MemSource(ds.Reads), &buf)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return &testReport{Report: rep, Device: eng.Report()}, buf.Bytes()
}

// soapsnpText runs the dense baseline and returns its output.
func soapsnpText(t *testing.T, ds *seqsim.Dataset, run pipeline.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := startRun(context.Background(), soapsnp.New(soapsnp.Config{}), ds, run, pipeline.MemSource(ds.Reads), &buf); err != nil {
		t.Fatalf("soapsnp: %v", err)
	}
	return buf.Bytes()
}

func TestPackUnpackWord(t *testing.T) {
	f := func(b, q, c, s uint8, u bool) bool {
		o := pipeline.Obs{
			Base:   dna.Base(b & 3),
			Qual:   dna.Quality(q & 63),
			Coord:  c,
			Strand: s & 1,
			Uniq:   u,
		}
		got := UnpackWord(PackWord(o))
		return got == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUniqBitAboveSortKey(t *testing.T) {
	// The uniq flag must ride above the 17-bit sort key so that stripping
	// it (which counting does before sorting) leaves the key untouched.
	o := pipeline.Obs{Base: dna.T, Qual: 63, Coord: 255, Strand: 1}
	plain := PackWord(o)
	o.Uniq = true
	flagged := PackWord(o)
	if plain >= 1<<wordKeyBits {
		t.Errorf("non-uniq word %#x overflows the %d-bit sort key", plain, wordKeyBits)
	}
	if flagged&^wordUniqBit != plain {
		t.Errorf("uniq flag perturbs key bits: %#x vs %#x", flagged&^wordUniqBit, plain)
	}
	if flagged&wordUniqBit == 0 {
		t.Error("uniq flag not set")
	}
}

func TestWordSortOrderIsCanonical(t *testing.T) {
	// Ascending word order must equal (base asc, score desc, coord asc,
	// strand asc) — Algorithm 1's loop order.
	a := PackWord(pipeline.Obs{Base: dna.A, Qual: 50, Coord: 10, Strand: 0})
	b := PackWord(pipeline.Obs{Base: dna.A, Qual: 20, Coord: 0, Strand: 0})
	if a >= b {
		t.Error("higher score must sort before lower score within a base")
	}
	c := PackWord(pipeline.Obs{Base: dna.C, Qual: 63, Coord: 0, Strand: 0})
	if b >= c {
		t.Error("base A must sort before base C regardless of score")
	}
	d1 := PackWord(pipeline.Obs{Base: dna.A, Qual: 20, Coord: 5, Strand: 0})
	d2 := PackWord(pipeline.Obs{Base: dna.A, Qual: 20, Coord: 5, Strand: 1})
	if d1 >= d2 {
		t.Error("forward strand must sort before reverse at equal fields")
	}
}

func TestGSNPCPUMatchesSOAPsnp(t *testing.T) {
	// The headline consistency claim (Section IV-G): the sparse engine
	// produces output byte-identical to the dense baseline.
	ds := testDataset(t, 4000, 9, 101)
	want := soapsnpText(t, ds, pipeline.Config{Window: 1000})
	_, got := runGSNP(t, ds, pipeline.Config{Window: 800}, Config{Mode: ModeCPU})
	if !bytes.Equal(got, want) {
		t.Fatalf("GSNP_CPU output differs from SOAPsnp (lens %d vs %d)", len(got), len(want))
	}
}

func TestGSNPGPUMatchesSOAPsnp(t *testing.T) {
	ds := testDataset(t, 3000, 9, 102)
	want := soapsnpText(t, ds, pipeline.Config{Window: 700})
	for _, variant := range []Variant{VariantOptimized, VariantBaseline, VariantShared, VariantNewTable} {
		_, got := runGSNP(t, ds, pipeline.Config{Window: 640}, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050()), Variant: variant})
		if !bytes.Equal(got, want) {
			t.Fatalf("variant %v: GPU output differs from SOAPsnp", variant)
		}
	}
}

// TestLongReadsMatchAcrossEngines extends the consistency claim past the
// paper's 100 bp reads, up to the model's 256: the dep_count stride follows
// the longest read of the input, so the dense baseline, the sparse CPU
// engine and the sparse GPU engine still write identical rows and identical
// VCF, and the calls still track the simulated truth.
func TestLongReadsMatchAcrossEngines(t *testing.T) {
	for _, readLen := range []int{150, 256} {
		spec := seqsim.ChromosomeSpec{Name: "chrL", Length: 12000, Depth: 12, MaskFraction: 0.1, Seed: int64(readLen)}
		ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: spec.Name, Length: spec.Length, Seed: spec.Seed})
		dip := seqsim.MakeDiploid(ref, seqsim.DefaultDiploidSpec(spec.Seed+1))
		rspec := seqsim.DefaultReadSpec(spec.Depth, spec.Seed+2)
		rspec.ReadLen, rspec.MaskFraction = readLen, spec.MaskFraction
		rs, mask := seqsim.SampleReads(dip, rspec)
		ds := &seqsim.Dataset{Spec: spec, Ref: ref, Diploid: dip, Reads: rs, Mask: mask, ReadSpec: rspec}

		for _, vcf := range []bool{false, true} {
			want := bytes.NewBuffer(soapsnpText(t, ds, pipeline.Config{Window: 1000, VCFOutput: vcf}))
			_, cpu := runGSNP(t, ds, pipeline.Config{Window: 1700, VCFOutput: vcf}, Config{Mode: ModeCPU, ComputeWorkers: 2, forceShardWorkers: 2})
			if !bytes.Equal(cpu, want.Bytes()) {
				t.Errorf("%d bp, vcf=%t: gsnp-cpu output differs from soapsnp", readLen, vcf)
			}
			_, dev := runGSNP(t, ds, pipeline.Config{Window: 2900, VCFOutput: vcf}, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
			if !bytes.Equal(dev, want.Bytes()) {
				t.Errorf("%d bp, vcf=%t: gsnp-gpu output differs from soapsnp", readLen, vcf)
			}
			if vcf {
				continue
			}
			rows, err := snpio.ReadResults(want)
			if err != nil {
				t.Fatal(err)
			}
			truth := map[int]dna.Genotype{}
			for _, v := range dip.Variants {
				truth[v.Pos] = v.Genotype
			}
			var tp, fn, fp int
			for i := range rows {
				g, variant := truth[i]
				switch {
				case rows[i].Depth < 4: // only judge sites with usable coverage
				case variant && rows[i].Genotype == g.IUPAC():
					tp++
				case variant:
					fn++
				case rows[i].IsSNP():
					fp++
				}
			}
			if sens := float64(tp) / float64(tp+fn); tp == 0 || sens < 0.75 || fp > len(rows)/500 {
				t.Errorf("%d bp: tp=%d fn=%d fp=%d over %d sites: calls no longer track the truth", readLen, tp, fn, fp, len(rows))
			}
			t.Logf("%d bp: tp=%d fn=%d fp=%d", readLen, tp, fn, fp)
		}
	}
}

func TestSortMethodsProduceIdenticalOutput(t *testing.T) {
	ds := testDataset(t, 2000, 9, 103)
	var ref []byte
	for i, method := range []SortMethod{SortMultipass, SortSinglePass, SortNonEq} {
		_, got := runGSNP(t, ds, pipeline.Config{Window: 512}, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050()), Sort: method})
		if i == 0 {
			ref = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("sort method %d output differs", method)
		}
	}
}

func TestCompressedOutputDecodesToSameRows(t *testing.T) {
	ds := testDataset(t, 2500, 8, 104)
	_, text := runGSNP(t, ds, pipeline.Config{Window: 600}, Config{Mode: ModeCPU})
	wantRows, err := snpio.ReadResults(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	rep, blob := runGSNP(t, ds, pipeline.Config{Window: 600, CompressOutput: true}, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	gotRows, err := snpio.ReadAllBlocks(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRows) != len(wantRows) {
		t.Fatalf("row counts differ: %d vs %d", len(gotRows), len(wantRows))
	}
	for i := range wantRows {
		if gotRows[i] != wantRows[i] {
			t.Fatalf("row %d differs:\n got %+v\nwant %+v", i, gotRows[i], wantRows[i])
		}
	}
	// Figure 9(a): the compressed container is much smaller than text.
	if rep.OutputBytes*4 > int64(len(text)) {
		t.Errorf("compressed output %d B not <= 1/4 of text %d B", rep.OutputBytes, len(text))
	}
}

func TestWindowSizeInvariance(t *testing.T) {
	ds := testDataset(t, 2200, 8, 105)
	var ref []byte
	for i, win := range []int{300, 1024, 2200} {
		_, got := runGSNP(t, ds, pipeline.Config{Window: win}, Config{Mode: ModeCPU})
		if i == 0 {
			ref = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("window %d output differs", win)
		}
	}
}

func TestReportContents(t *testing.T) {
	ds := testDataset(t, 3000, 9.6, 106)
	rep, _ := runGSNP(t, ds, pipeline.Config{Window: 1000}, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	if rep.Sites != 3000 {
		t.Errorf("Sites = %d", rep.Sites)
	}
	if rep.MeanDepth < 7 || rep.MeanDepth > 11 {
		t.Errorf("MeanDepth = %v", rep.MeanDepth)
	}
	if rep.Device.LikeliStats.Instructions == 0 || rep.Device.LikeliStats.GlobalLoads == 0 {
		t.Error("likelihood_comp counters empty")
	}
	if rep.Device.SortStats.ElementsSorted == 0 {
		t.Error("sort stats empty")
	}
	if rep.Device.PeakDeviceBytes == 0 {
		t.Error("peak device bytes empty")
	}
	var sites int64
	for _, c := range rep.NonZeroHist {
		sites += c
	}
	if sites != 3000 {
		t.Errorf("sparsity histogram covers %d sites", sites)
	}
	if rep.Times.Total() <= 0 || rep.Times.String() == "" {
		t.Error("times not populated")
	}
	if rep.Times.Likeli() != rep.Times.LikeliSort+rep.Times.LikeliComp {
		t.Error("Likeli() inconsistent")
	}
}

func TestTableIIICounterTrends(t *testing.T) {
	// The hardware-counter trends of Table III: shared memory removes the
	// global type_likely traffic; the new table removes instructions
	// (logs) and p_matrix loads; optimized is lowest on both.
	ds := testDataset(t, 2000, 9, 107)
	stats := map[Variant]gpu.Stats{}
	for _, v := range []Variant{VariantBaseline, VariantShared, VariantNewTable, VariantOptimized} {
		rep, _ := runGSNP(t, ds, pipeline.Config{Window: 1000}, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050()), Variant: v})
		stats[v] = rep.Device.LikeliStats
	}
	base, shared, table, opt := stats[VariantBaseline], stats[VariantShared], stats[VariantNewTable], stats[VariantOptimized]

	if shared.SharedLoads == 0 || shared.SharedStores == 0 {
		t.Error("shared variant has no shared-memory traffic")
	}
	if base.SharedLoads != 0 {
		t.Error("baseline variant uses shared memory")
	}
	if !(shared.GlobalLoads < base.GlobalLoads) {
		t.Errorf("shared gld %d not below baseline %d", shared.GlobalLoads, base.GlobalLoads)
	}
	if !(shared.GlobalStores < base.GlobalStores) {
		t.Errorf("shared gst %d not below baseline %d", shared.GlobalStores, base.GlobalStores)
	}
	if !(table.Instructions < base.Instructions) {
		t.Errorf("new-table instructions %d not below baseline %d", table.Instructions, base.Instructions)
	}
	if !(table.GlobalLoads < base.GlobalLoads) {
		t.Errorf("new-table gld %d not below baseline %d", table.GlobalLoads, base.GlobalLoads)
	}
	if !(opt.GlobalLoads+opt.GlobalStores < base.GlobalLoads+base.GlobalStores) {
		t.Error("optimized global accesses not below baseline")
	}
	if !(opt.Instructions < base.Instructions) {
		t.Error("optimized instructions not below baseline")
	}
}

func TestDenseGPULikelihoodMatchesSparse(t *testing.T) {
	ds := testDataset(t, 300, 9, 108)
	d := gpu.NewDevice(gpu.M2050())
	cfg := Config{Mode: ModeGPU, Device: d}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := startRun(context.Background(), eng, ds, pipeline.Config{Window: 300}, pipeline.MemSource(ds.Reads), io.Discard); err != nil {
		t.Fatal(err)
	}

	// Rebuild the window's sorted words and compare dense vs sparse
	// likelihood directly.
	it, _ := pipeline.MemSource(ds.Reads).Open()
	win := pipeline.NewWindower(it)
	w := &window{start: 0, end: 300, n: 300}
	rs, _ := win.Reads(0, 300)
	for i := range rs {
		r := &rs[i]
		for pos := r.Pos; pos < r.Pos+len(r.Bases) && pos < 300; pos++ {
			if pos < 0 {
				continue
			}
			o, ok := pipeline.ObsOf(r, pos)
			if !ok {
				continue
			}
			o.Uniq = true
			w.obsSite = append(w.obsSite, uint32(pos))
			w.obsWord = append(w.obsWord, PackWord(o))
		}
	}
	eng2, _ := New(cfg)
	eng2.tables = eng.Tables()
	eng2.run = directRun(ds, 300, io.Discard)
	if err := eng2.loadTables(); err != nil {
		t.Fatal(err)
	}
	defer eng2.unloadTables()
	eng2.countCPU(w)
	sortWindowWords(w)
	eng2.likelihoodCompCPU(w)
	sparse := append([]float64(nil), w.typeLikely...)

	dense := DenseGPULikelihood(d, eng.Tables(), 100, &w.words, eng2.gNewP, eng2.cAdj)
	if len(dense) != len(sparse) {
		t.Fatalf("length mismatch %d vs %d", len(dense), len(sparse))
	}
	for i := range dense {
		if dense[i] != sparse[i] {
			t.Fatalf("dense GPU likelihood differs at %d: %v vs %v", i, dense[i], sparse[i])
		}
	}
}

// sortWindowWords sorts each site's words on the host (test helper).
func sortWindowWords(w *window) {
	for site := 0; site < w.n; site++ {
		arr := w.words.Array(site)
		for i := 1; i < len(arr); i++ {
			for k := i; k > 0 && arr[k-1] > arr[k]; k-- {
				arr[k-1], arr[k] = arr[k], arr[k-1]
			}
		}
	}
}

func TestVariantString(t *testing.T) {
	names := map[Variant]string{
		VariantOptimized: "optimized",
		VariantBaseline:  "baseline",
		VariantShared:    "w/ shared",
		VariantNewTable:  "w/ new table",
		Variant(99):      "Variant(99)",
	}
	for v, want := range names {
		if v.String() != want {
			t.Errorf("Variant(%d).String() = %q", int(v), v.String())
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Mode: ModeGPU}); err == nil {
		t.Error("ModeGPU without device accepted")
	}
	if _, err := New(Config{Mode: ModeCPU}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestRecycleIsNegligible(t *testing.T) {
	// The sparse representation makes recycle orders of magnitude cheaper
	// than likelihood (Table IV: 3s vs 60s on the GPU; SOAPsnp: 8214s).
	ds := testDataset(t, 5000, 9, 109)
	rep, _ := runGSNP(t, ds, pipeline.Config{Window: 1000}, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	if rep.Times.Recycle*10 > rep.Times.Likeli() {
		t.Errorf("recycle %v not negligible vs likelihood %v", rep.Times.Recycle, rep.Times.Likeli())
	}
}

func TestGPUWindowSizeInvariance(t *testing.T) {
	ds := testDataset(t, 1800, 8, 111)
	var ref []byte
	dev := gpu.NewDevice(gpu.M2050())
	for i, win := range []int{256, 900, 1800} {
		_, got := runGSNP(t, ds, pipeline.Config{Window: win}, Config{Mode: ModeGPU, Device: dev})
		if i == 0 {
			ref = got
			continue
		}
		if !bytes.Equal(got, ref) {
			t.Fatalf("GPU window %d output differs", win)
		}
	}
}

func TestEngineReuseAcrossRuns(t *testing.T) {
	// One engine, several runs: device table state must reset cleanly.
	ds := testDataset(t, 1200, 8, 112)
	cfg := Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	for run := 0; run < 3; run++ {
		var buf bytes.Buffer
		if _, err := startRun(context.Background(), eng, ds, pipeline.Config{Window: 400}, pipeline.MemSource(ds.Reads), &buf); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if run == 0 {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d output differs from run 0", run)
		}
	}
	// Device memory must not leak across runs (tables/dep freed).
	if ab := cfg.Device.AllocatedBytes(); ab != 0 {
		t.Errorf("device memory leaked: %d bytes still allocated", ab)
	}
}

func TestCountGPUMatchesCountCPU(t *testing.T) {
	// The counting component's GPU kernels (count/scan/scatter + atomic
	// per-base statistics) must agree with the host implementation, up to
	// intra-site word order (restored by likelihood_sort).
	ds := testDataset(t, 1500, 9, 113)
	n := len(ds.Ref.Seq)

	build := func() *window { return buildTestWindow(ds, n) }

	cpuEng, _ := New(Config{Mode: ModeCPU})
	wc := build()
	cpuEng.countCPU(wc)

	gpuEng, _ := New(Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	wg := build()
	gpuEng.countGPU(wg)

	if len(wc.words.Bounds) != len(wg.words.Bounds) {
		t.Fatal("bounds lengths differ")
	}
	for i := range wc.words.Bounds {
		if wc.words.Bounds[i] != wg.words.Bounds[i] {
			t.Fatalf("bounds differ at %d: %d vs %d", i, wc.words.Bounds[i], wg.words.Bounds[i])
		}
	}
	sortWindowWords(wc)
	sortWindowWords(wg)
	for i := range wc.words.Data {
		if wc.words.Data[i] != wg.words.Data[i] {
			t.Fatalf("sorted words differ at %d", i)
		}
	}
	for site := 0; site < n; site++ {
		if wc.counts[site] != wg.counts[site] {
			t.Fatalf("site %d counts differ:\n cpu %+v\n gpu %+v", site, wc.counts[site], wg.counts[site])
		}
	}
}
