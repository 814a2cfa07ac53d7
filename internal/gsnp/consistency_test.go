package gsnp

import (
	"io"
	"testing"

	"gsnp/internal/bayes"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
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
	eng, err := New(Config{
		Chr: ds.Spec.Name, Ref: ds.Ref.Seq, Window: n,
		Mode: ModeGPU, Device: dev, Variant: variant,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Minimal table setup (cal_p_matrix from a Phred prior keeps the
	// comparison focused on the kernels).
	eng.tables = testTables()
	eng.run = directRun(eng, io.Discard)
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
	eng, err := New(Config{Chr: ds.Spec.Name, Ref: ds.Ref.Seq, Window: n, Mode: ModeCPU})
	if err != nil {
		t.Fatal(err)
	}
	eng.tables = testTables()
	eng.run = directRun(eng, io.Discard)
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

// directRun is the driver state Prepare would be handed — settings, the
// historical stride, an empty report, a row sink over w — for tests that
// call an engine's kernel methods without a run.
func directRun(eng *Engine, w io.Writer) *pipeline.RunState {
	st := &pipeline.RunState{
		Config: eng.cfg.settings(),
		Stride: pipeline.MinStride,
		Report: &pipeline.Report{Sites: len(eng.cfg.Ref), NonZeroHist: make([]int64, pipeline.SparsityHistSize)},
		Out:    pipeline.RowSink(snpio.NewResultWriter(w)),
	}
	st.Priors = bayes.DefaultPriors()
	return st
}

// testTables builds the fixed Phred-model tables used by the consistency
// tests.
func testTables() *bayes.Tables {
	return bayes.BuildTables(bayes.NewPMatrixFromPhred())
}
