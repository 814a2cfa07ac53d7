package gsnp

import (
	"io"
	"slices"
	"testing"

	"gsnp/internal/bayes"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

// buildTestWindow reconstructs one window's observation arrays directly
// from a dataset, for tests that drive individual components.
func buildTestWindow(ds *seqsim.Dataset, n int) *window {
	w := &window{start: 0, end: n, n: n}
	for i := range ds.Reads {
		r := &ds.Reads[i]
		for pos := r.Pos; pos < r.Pos+len(r.Bases) && pos < n; pos++ {
			if pos < 0 {
				continue
			}
			o, ok := pipeline.ObsOf(r, pos)
			if !ok {
				continue
			}
			w.obsSite = append(w.obsSite, uint32(pos))
			w.obsWord = append(w.obsWord, PackWord(o))
		}
	}
	return w
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
		var wantSite, wantWord []uint32
		for i := range rs {
			for pos := win[0]; pos < win[1]; pos++ {
				if o, ok := pipeline.ObsOf(&rs[i], pos); ok {
					wantSite = append(wantSite, uint32(pos-win[0]))
					wantWord = append(wantWord, PackWord(o))
				}
			}
		}
		var w window
		w.reset(win[0], win[1])
		w.flatten(rs)
		if len(wantSite) == 0 || !slices.Equal(w.obsSite, wantSite) || !slices.Equal(w.obsWord, wantWord) {
			t.Errorf("window [%d,%d): flatten yields %d observations, the ObsOf+PackWord rule %d; streams equal: site %t, word %t",
				win[0], win[1], len(w.obsSite), len(wantSite), slices.Equal(w.obsSite, wantSite), slices.Equal(w.obsWord, wantWord))
		}
	}
}
