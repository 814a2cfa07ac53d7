package gsnp

import (
	"cmp"
	"io"
	"slices"
	"testing"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

// buildTestWindow flattens a dataset's reads over the window [0, n), for
// tests that drive individual components.
func buildTestWindow(ds *seqsim.Dataset, n int) *window {
	w := new(window)
	w.reset(0, n)
	w.flatten(ds.Reads)
	return w
}

// likelihoodCompGPU runs likelihood_comp on the window's host segments the
// way a test compares it with likelihoodCompCPU: the bounds go up, and
// type_likely comes back into w.typeLikely. (runWindowGPU does neither: its
// bounds come from counting and its type_likely stays for posterior.)
func (e *Engine) likelihoodCompGPU(w *window) {
	d := e.cfg.Device
	bounds := gpu.Alloc[uint32](d, w.n+1)
	defer bounds.Free()
	for i, b := range w.words.Bounds {
		bounds.Host()[i] = uint32(b)
	}
	bounds.CopyIn(bounds.Host())
	gTL := gpu.Alloc[float64](d, w.n*dna.NGenotypes)
	defer gTL.Free()
	e.likelihoodCompDevice(w, bounds, gTL)
	w.typeLikely = grow(w.typeLikely, gTL.Len())
	gTL.CopyOut(w.typeLikely)
}

// likelihoodOnDevice runs counting+sort+likelihood_comp for one window on
// the given device and returns the type_likely array.
func likelihoodOnDevice(t *testing.T, ds *seqsim.Dataset, dev *gpu.Device, variant Variant) []float64 {
	t.Helper()
	n := len(ds.Ref.Seq)
	eng, err := New(Config{Mode: ModeGPU, Device: dev, Variant: variant})
	if err != nil {
		t.Fatal(err)
	}
	// Minimal table setup (cal_p_matrix from a Phred prior keeps the
	// comparison focused on the kernels).
	eng.tables = testTables()
	eng.run = directRun(ds, n, io.Discard)
	if err := eng.loadTables(); err != nil {
		t.Fatal(err)
	}
	defer eng.unloadTables()

	w := buildTestWindow(ds, n)
	eng.countCPU(w)
	sortWindowWords(w)
	eng.likelihoodCompGPU(w)
	return w.typeLikely
}

// likelihoodOnHost runs the same window through the CPU sparse path.
func likelihoodOnHost(t *testing.T, ds *seqsim.Dataset) []float64 {
	t.Helper()
	n := len(ds.Ref.Seq)
	eng, err := New(Config{Mode: ModeCPU})
	if err != nil {
		t.Fatal(err)
	}
	eng.tables = testTables()
	eng.run = directRun(ds, n, io.Discard)
	w := buildTestWindow(ds, n)
	eng.countCPU(w)
	sortWindowWords(w)
	eng.likelihoodCompCPU(w)
	return w.typeLikely
}

// TestFastMathConsistency reproduces the Section IV-G experiment: on a
// device whose native math functions differ from the host libm in the
// trailing bits, the kernel that computes logarithms at runtime (the
// baseline, Algorithm 2) produces likelihoods that disagree with the CPU,
// while the shipped configuration — all logarithms precomputed on the CPU
// into log_table/new_p_matrix — stays bit-identical. The paper observed
// ~0.1% of final results differing before adopting the tables.
func TestFastMathConsistency(t *testing.T) {
	ds := testDataset(t, 3000, 10, 777)
	hostTL := likelihoodOnHost(t, ds)

	fastCfg := gpu.M2050()
	fastCfg.FastMath = true

	// Runtime-log kernel on the fast-math device: values drift.
	fastTL := likelihoodOnDevice(t, ds, gpu.NewDevice(fastCfg), VariantBaseline)
	diff := 0
	for i := range hostTL {
		if hostTL[i] != fastTL[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Error("fast-math runtime-log kernel produced bit-identical likelihoods; the device-math inconsistency is not being exercised")
	}
	t.Logf("fast-math runtime-log kernel: %d of %d likelihood values differ (%.2f%%)",
		diff, len(hostTL), 100*float64(diff)/float64(len(hostTL)))

	// The table-based kernel is immune on the same device.
	tableTL := likelihoodOnDevice(t, ds, gpu.NewDevice(fastCfg), VariantOptimized)
	for i := range hostTL {
		if hostTL[i] != tableTL[i] {
			t.Fatalf("table-based kernel diverged at %d under fast math: %v vs %v", i, tableTL[i], hostTL[i])
		}
	}

	// And on an IEEE-exact device even the runtime-log kernel matches,
	// because the host computes the same log10.
	exactTL := likelihoodOnDevice(t, ds, gpu.NewDevice(gpu.M2050()), VariantBaseline)
	hostRuntime := runtimeLogHost(t, ds)
	for i := range exactTL {
		if exactTL[i] != hostRuntime[i] {
			t.Fatalf("exact-math runtime-log kernel differs from host runtime-log at %d", i)
		}
	}
}

// runtimeLogHost computes likelihoods on the host with Algorithm 2's
// runtime logarithms (what single-threaded SOAPsnp does); with IEEE math
// this matches the precomputed tables bit for bit.
func runtimeLogHost(t *testing.T, ds *seqsim.Dataset) []float64 {
	t.Helper()
	// The table path is proven equal to runtime LikelyUpdate in the bayes
	// package tests; reuse the host sparse path.
	return likelihoodOnHost(t, ds)
}

// directRun is the driver state Prepare would be handed — the data set's
// chromosome and reference at the given window size, default priors, the
// historical stride, an empty report, a row sink over w — for tests that
// call an engine's kernel methods without a run.
func directRun(ds *seqsim.Dataset, window int, w io.Writer) *pipeline.RunState {
	return &pipeline.RunState{
		Config: pipeline.Config{Chr: ds.Spec.Name, Ref: ds.Ref.Seq, Window: window, Priors: bayes.DefaultPriors()},
		Stride: pipeline.MinStride,
		Report: &pipeline.Report{Sites: len(ds.Ref.Seq), NonZeroHist: make([]int64, pipeline.SparsityHistSize)},
		Out:    pipeline.RowSink(snpio.NewResultWriter(w)),
	}
}

// testTables builds the fixed Phred-model tables used by the consistency
// tests.
func testTables() *bayes.Tables {
	return bayes.BuildTables(bayes.NewPMatrixFromPhred())
}

// TestFlattenMatchesObsOf holds the window's inlined flatten loop to the
// rule pipeline.ObsOf and PackWord define — which bases of a read enter the
// window, at which site, as which base_word — on reads of both strands and
// both uniqueness classes that straddle either window edge, start before
// position 0, cover the whole window, miss it, and run longer than the
// model's cycle range (the counterpart of pipeline's
// TestCalibrateMatchesObsOf).
func TestFlattenMatchesObsOf(t *testing.T) {
	ds := testDataset(t, 3000, 6, 12)
	const start, end = 1000, 1300
	rs := append([]reads.AlignedRead(nil), ds.Reads...)
	for i, pos := range []int{-30, start - 40, end - 40, start - 10, end, end + 5, 0} {
		r := ds.Reads[i]
		r.Pos, r.Strand, r.Hits = pos, uint8(i&1), uint8(1+i%3)
		rs = append(rs, r)
	}
	for strand := uint8(0); strand < 2; strand++ {
		long := reads.AlignedRead{Pos: start - 50, Strand: strand, Hits: 1}
		for len(long.Bases) < bayes.MaxReadLen+150 {
			long.Bases = append(long.Bases, ds.Reads[0].Bases...)
			long.Quals = append(long.Quals, ds.Reads[0].Quals...)
		}
		rs = append(rs, long)
		long.Pos = -(bayes.MaxReadLen + 100) // only its tail reaches position 0
		rs = append(rs, long)
	}

	for _, win := range [][2]int{{start, end}, {0, 300}} {
		// The rule's observations, grouped by read and ordered by the
		// read's first kept site in the window, stably: the reads above are
		// not in position order, and a long − strand read's first kept site
		// lies past later reads' starts, so flatten must sort its run table.
		type group struct {
			site, word []uint32
		}
		var groups []group
		ext := 0
		for i := range rs {
			var g group
			for pos := win[0]; pos < win[1]; pos++ {
				if o, ok := pipeline.ObsOf(&rs[i], pos); ok {
					g.site = append(g.site, uint32(pos-win[0]))
					g.word = append(g.word, PackWord(o))
				}
			}
			if len(g.site) > 0 {
				groups = append(groups, g)
				ext = max(ext, int(g.site[len(g.site)-1]+1-g.site[0]))
			}
		}
		slices.SortStableFunc(groups, func(a, b group) int { return cmp.Compare(a.site[0], b.site[0]) })
		var wantSite, wantWord, wantFirst []uint32
		for _, g := range groups {
			wantSite = append(wantSite, g.site...)
			wantWord = append(wantWord, g.word...)
			wantFirst = append(wantFirst, g.site[0])
		}

		var w window
		w.reset(win[0], win[1])
		w.flatten(rs)
		var site, word, runFirst []uint32
		for _, r := range w.runs {
			runFirst = append(runFirst, r.first)
			for s := r.first; s < r.end; s++ {
				site = append(site, s)
				word = append(word, w.obsWord[r.off+s-r.first])
			}
		}
		if len(wantSite) == 0 || !slices.Equal(site, wantSite) || !slices.Equal(word, wantWord) {
			t.Errorf("window [%d,%d): flatten yields %d observations, the ObsOf+PackWord rule %d; streams equal: site %t, word %t",
				win[0], win[1], len(site), len(wantSite), slices.Equal(site, wantSite), slices.Equal(word, wantWord))
		}
		if !slices.Equal(runFirst, wantFirst) || len(w.obsWord) != len(wantWord) || w.maxExtent != ext {
			t.Errorf("window [%d,%d): %d runs over %d words, extent %d; want %d runs (first sites equal: %t) over %d words, extent %d",
				win[0], win[1], len(w.runs), len(w.obsWord), w.maxExtent, len(wantFirst), slices.Equal(runFirst, wantFirst), len(wantWord), ext)
		}
	}
}

// TestFlattenAllocatesOncePerArray: flatten sizes the run table from the
// read count and the word array from the clamped spans of the window's
// reads before it appends, so a cold window — the first of a run, or one
// larger than any before it — costs one allocation per array instead of a
// doubling series.
func TestFlattenAllocatesOncePerArray(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector the allocation count varies from run to run")
	}
	ds := testDataset(t, 3000, 10, 12)
	w := new(window)
	allocs := testing.AllocsPerRun(5, func() {
		*w = window{}
		w.reset(500, 2500)
		w.flatten(ds.Reads)
	})
	if len(w.runs) == 0 || len(w.obsWord) == 0 || allocs != 2 {
		t.Errorf("a cold flatten of %d runs over %d observations made %.0f allocations, want 2", len(w.runs), len(w.obsWord), allocs)
	}
}
