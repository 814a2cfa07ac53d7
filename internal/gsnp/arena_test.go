package gsnp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"
	"time"

	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

// directWin is one pre-fetched window for direct Window calls.
type directWin struct {
	rs         []reads.AlignedRead
	start, end int
}

// newDirectEngine builds an engine ready for direct Window calls —
// the setup the driver normally performs (tables, priors, output sink) —
// plus the dataset's windows of window sites with their reads pre-fetched,
// so tests and benchmarks can measure components 3-7 in isolation.
func newDirectEngine(tb testing.TB, ds *seqsim.Dataset, window int, cfg Config) (*Engine, []directWin) {
	tb.Helper()
	eng, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	eng.tables = testTables()
	eng.run = directRun(ds, window, io.Discard)
	for b := dna.Base(0); b < dna.NBases; b++ {
		eng.novelPriors[b] = eng.run.Priors.LogPriors(b, nil)
	}
	if eng.cfg.Mode == ModeGPU {
		if err := eng.loadTables(); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(eng.unloadTables)
	}

	it, err := pipeline.MemSource(ds.Reads).Open()
	if err != nil {
		tb.Fatal(err)
	}
	win := pipeline.NewWindower(it)
	var wins []directWin
	for start := 0; start < len(ds.Ref.Seq); start += window {
		end := min(start+window, len(ds.Ref.Seq))
		rs, err := win.Reads(start, end)
		if err != nil {
			tb.Fatal(err)
		}
		wins = append(wins, directWin{rs: rs, start: start, end: end})
	}
	return eng, wins
}

func TestComputeWorkersByteIdentity(t *testing.T) {
	// The tentpole guarantee: sharding likelihood_comp + posterior over
	// sites must not perturb a single output byte, because shards write
	// disjoint index ranges with per-worker dep_count scratch.
	// forceShardWorkers pins the dispatch width so the fork-join path
	// is really exercised even on hosts where the adaptive cap (CPU count,
	// minShardSites) would serialize these small windows.
	ds := testDataset(t, 3000, 9, 555)
	_, want := runGSNP(t, ds, pipeline.Config{Window: 700}, Config{Mode: ModeCPU, ComputeWorkers: 1})
	for _, cw := range []int{2, 4, 7} {
		_, got := runGSNP(t, ds, pipeline.Config{Window: 700}, Config{Mode: ModeCPU, ComputeWorkers: cw, forceShardWorkers: cw})
		if !bytes.Equal(got, want) {
			t.Errorf("ComputeWorkers=%d output differs from single-threaded", cw)
		}
	}
	// The adaptive path (no forcing): whatever width it picks, bytes match.
	_, gotAdaptive := runGSNP(t, ds, pipeline.Config{Window: 700}, Config{Mode: ModeCPU, ComputeWorkers: 4})
	if !bytes.Equal(gotAdaptive, want) {
		t.Error("adaptive ComputeWorkers output differs from single-threaded")
	}
	// Stacked with the other concurrency knobs.
	_, got := runGSNP(t, ds, pipeline.Config{Window: 700, Prefetch: true}, Config{Mode: ModeCPU, ComputeWorkers: 4, forceShardWorkers: 4, SortWorkers: 4})
	if !bytes.Equal(got, want) {
		t.Error("ComputeWorkers+SortWorkers+Prefetch output differs from serial")
	}
}

func TestEffectiveComputeWorkers(t *testing.T) {
	mp := runtime.GOMAXPROCS(0)
	cases := []struct {
		k, n, want int
	}{
		// Tiny windows serialize regardless of the request.
		{k: 8, n: minShardSites - 1, want: 1},
		{k: 8, n: 1, want: 1},
		// One shard's worth of sites: still serial (floor is 1).
		{k: 8, n: minShardSites, want: 1},
		// Large window: bounded by the host CPU count only.
		{k: 4, n: 100 * minShardSites, want: min(4, mp)},
		{k: 1, n: 100 * minShardSites, want: 1},
	}
	for _, c := range cases {
		if got := effectiveComputeWorkers(c.k, c.n); got != c.want {
			t.Errorf("effectiveComputeWorkers(%d, %d) = %d, want %d (GOMAXPROCS=%d)", c.k, c.n, got, c.want, mp)
		}
	}
}

// TestComputeWorkersNoRegression pins the cw=4 bugfix: with the adaptive
// cap in place, requesting more compute workers than the window or host
// can use must not make the bench window slower than serial. The old
// behaviour dispatched pool shards unconditionally, and on a small host
// that pure overhead made cw=4 measurably slower than cw=1. The bytes are
// compared always; the walls only without the race detector, whose
// instrumentation multiplies the cost of exactly the synchronisation the
// two sides differ in.
func TestComputeWorkersNoRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison skipped in -short mode")
	}
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{
		Name: "chrB", Length: 40000, Depth: 10, MaskFraction: 0.1, Seed: 7,
	})
	type side struct {
		pass func()
		out  []byte
		best float64
	}
	setup := func(cw int) *side {
		eng, wins := newDirectEngine(t, ds, 8000, Config{Mode: ModeCPU, SortWorkers: 1, ComputeWorkers: cw})
		sd := &side{best: math.Inf(1)}
		sd.pass = func() {
			for _, dw := range wins {
				if err := eng.Window(dw.rs, dw.start, dw.end); err != nil {
					t.Fatal(err)
				}
			}
		}
		// The first pass warms the arena and is the one whose bytes are kept.
		var buf bytes.Buffer
		eng.run.Out = pipeline.RowSink(snpio.NewResultWriter(&buf))
		sd.pass()
		if err := eng.run.Out.Flush(); err != nil {
			t.Fatal(err)
		}
		sd.out = buf.Bytes()
		eng.run.Out = pipeline.RowSink(snpio.NewResultWriter(io.Discard))
		return sd
	}
	s1, s4 := setup(1), setup(4)
	if len(s1.out) == 0 || !bytes.Equal(s1.out, s4.out) {
		t.Fatalf("cw=4 output (%d bytes) differs from cw=1 output (%d bytes)", len(s4.out), len(s1.out))
	}
	if raceEnabled {
		t.Log("race detector on: wall comparison skipped")
		return
	}
	// Best of N, the two sides alternating so that a slow spell of the
	// host falls on both.
	for trial := 0; trial < 9; trial++ {
		for _, sd := range []*side{s1, s4} {
			start := time.Now()
			sd.pass()
			sd.best = min(sd.best, time.Since(start).Seconds())
		}
	}
	// Generous slack: the fix makes cw=4 at worst equal to cw=1 (it
	// serializes when no parallelism is available), so anything beyond
	// noise is a regression.
	if s4.best > s1.best*1.25 {
		t.Errorf("cw=4 window pass took %.2fms, cw=1 took %.2fms: adaptive cap failed to remove the dispatch overhead", s4.best*1e3, s1.best*1e3)
	}
	t.Logf("bench window pass: cw=1 %.2fms, cw=4 %.2fms", s1.best*1e3, s4.best*1e3)
}

func TestArenaReuseAcrossRuns(t *testing.T) {
	// One arena handed through Config across consecutive runs — the
	// whole-genome scheduler's per-worker usage — must keep outputs
	// byte-identical while the working set is recycled, including across
	// datasets of different sizes and across CPU/GPU modes.
	dsA := testDataset(t, 2500, 9, 900)
	dsB := testDataset(t, 1200, 6, 901)
	_, wantA := runGSNP(t, dsA, pipeline.Config{Window: 600}, Config{Mode: ModeCPU})
	_, wantB := runGSNP(t, dsB, pipeline.Config{Window: 600}, Config{Mode: ModeCPU})

	arena := NewArena()
	for run := 0; run < 2; run++ {
		_, gotA := runGSNP(t, dsA, pipeline.Config{Window: 600}, Config{Mode: ModeCPU, Arena: arena, ComputeWorkers: 2})
		if !bytes.Equal(gotA, wantA) {
			t.Fatalf("run %d: recycled-arena output differs (dataset A)", run)
		}
		_, gotB := runGSNP(t, dsB, pipeline.Config{Window: 600}, Config{Mode: ModeCPU, Arena: arena})
		if !bytes.Equal(gotB, wantB) {
			t.Fatalf("run %d: recycled-arena output differs (dataset B, shrunk window set)", run)
		}
	}

	// The same arena feeding a GPU engine next: host staging reuse must
	// not leak CPU-run state into the kernels' inputs.
	_, wantGPU := runGSNP(t, dsA, pipeline.Config{Window: 600}, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	_, gotGPU := runGSNP(t, dsA, pipeline.Config{Window: 600}, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050()), Arena: arena})
	if !bytes.Equal(gotGPU, wantGPU) {
		t.Error("arena handed from CPU to GPU engine changed GPU output")
	}
}

// TestRunWindowSteadyStateAllocsCPU is the allocation regression gate of
// the window recycler: once the arena is warm, a CPU-mode window must run
// components 3-7 with at most a handful of allocations (the acceptance
// bound is 8; the steady state is expected to be ~0). SortWorkers is
// pinned to 1 — parallel sort spawns its goroutines per call and is gated
// separately by the byte-identity tests.
func TestRunWindowSteadyStateAllocsCPU(t *testing.T) {
	ds := testDataset(t, 4000, 10, 321)
	eng, wins := newDirectEngine(t, ds, 800, Config{Mode: ModeCPU, SortWorkers: 1, ComputeWorkers: 4, forceShardWorkers: 4})

	runAll := func() {
		for _, dw := range wins {
			if err := eng.Window(dw.rs, dw.start, dw.end); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the arena: every buffer reaches its high-water capacity.
	runAll()
	runAll()

	perWindow := testing.AllocsPerRun(5, runAll) / float64(len(wins))
	if perWindow > 8 {
		t.Errorf("steady-state CPU window allocates %.1f times (gate: 8)", perWindow)
	}
	t.Logf("steady-state CPU allocs/window: %.2f over %d windows", perWindow, len(wins))
}

// TestRunWindowSteadyStateAllocsGPU is the GPU counterpart of the CPU
// allocation gate: with the device free-lists (buffer storage, block
// scratch) and the arena staging warm, a GPU-mode window must run within a
// hard allocation budget. The remaining steady-state allocations are the
// per-launch kernel closures and the Buffer descriptor structs — a few
// per launch, ~15 launches per window — so the budget is a small constant,
// down from the ~560K allocs/window of the unrecycled simulator.
func TestRunWindowSteadyStateAllocsGPU(t *testing.T) {
	const budget = 256
	ds := testDataset(t, 2400, 10, 322)
	eng, wins := newDirectEngine(t, ds, 800, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})

	runAll := func() {
		for _, dw := range wins {
			if err := eng.Window(dw.rs, dw.start, dw.end); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm the arena, the device free-lists and the launch scratch.
	runAll()
	runAll()

	perWindow := testing.AllocsPerRun(5, runAll) / float64(len(wins))
	if perWindow > budget {
		t.Errorf("steady-state GPU window allocates %.1f times (gate: %d)", perWindow, budget)
	}
	t.Logf("steady-state GPU allocs/window: %.2f over %d windows", perWindow, len(wins))
}

// TestRunWindowSteadyStateStagingGPU gates pointer stability of the GPU
// window's host staging: after a warm-up pass, re-running the same windows
// must leave every staging buffer's backing array in place — reuse, not
// equal-sized reallocation.
func TestRunWindowSteadyStateStagingGPU(t *testing.T) {
	ds := testDataset(t, 2400, 10, 322)
	eng, wins := newDirectEngine(t, ds, 800, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})

	runAll := func() {
		for _, dw := range wins {
			if err := eng.Window(dw.rs, dw.start, dw.end); err != nil {
				t.Fatal(err)
			}
		}
	}
	runAll()
	runAll()

	w := &eng.arena.w
	before := [][]uint32{w.hostBounds[:1], w.hostStats[:1], w.hostBest[:1], w.hostSecond[:1], w.hostQual[:1], w.words.Data[:1]}
	tlBefore := &w.typeLikely[0]
	runAll()
	after := [][]uint32{w.hostBounds[:1], w.hostStats[:1], w.hostBest[:1], w.hostSecond[:1], w.hostQual[:1], w.words.Data[:1]}
	names := []string{"hostBounds", "hostStats", "hostBest", "hostSecond", "hostQual", "words.Data"}
	for i := range before {
		if &before[i][0] != &after[i][0] {
			t.Errorf("GPU staging buffer %s was reallocated in steady state", names[i])
		}
	}
	if tlBefore != &w.typeLikely[0] {
		t.Error("typeLikely was reallocated in steady state")
	}
}

func TestCountCPUStripsUniqBit(t *testing.T) {
	// The uniq flag rides above the sort key; counting must decode it into
	// the per-site summaries and strip it from the sort batches so the
	// canonical order is untouched.
	ds := testDataset(t, 600, 8, 77)
	eng, err := New(Config{Mode: ModeCPU})
	if err != nil {
		t.Fatal(err)
	}
	w := buildTestWindow(ds, 600)
	flagged := 0
	for _, word := range w.obsWord {
		if word&wordUniqBit != 0 {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("dataset produced no unique-hit observations; test is vacuous")
	}
	eng.countCPU(w)
	for _, word := range w.words.Data {
		if word&wordUniqBit != 0 {
			t.Fatal("uniq bit leaked into the sort batches")
		}
	}
	var uniq int
	for site := 0; site < w.n; site++ {
		for b := 0; b < int(dna.NBases); b++ {
			uniq += int(w.counts[site].Uniq[b])
		}
	}
	if uniq != flagged {
		t.Errorf("counting decoded %d uniq observations from packed words, want %d", uniq, flagged)
	}
}

// BenchmarkRunWindowCPU measures components 3-7 of one CPU window (one op
// = one window, so ns/op is ns/window) with the arena warm, at the
// single-threaded paper configuration and with site-parallel compute.
func BenchmarkRunWindowCPU(b *testing.B) {
	for _, cw := range []int{1, 4} {
		b.Run(fmt.Sprintf("cw=%d", cw), func(b *testing.B) {
			ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{
				Name: "chrB", Length: 40000, Depth: 10, MaskFraction: 0.1, Seed: 7,
			})
			eng, wins := newDirectEngine(b, ds, 8000, Config{Mode: ModeCPU, SortWorkers: 1, ComputeWorkers: cw})
			for _, dw := range wins { // warm the arena
				if err := eng.Window(dw.rs, dw.start, dw.end); err != nil {
					b.Fatal(err)
				}
			}
			sites := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dw := wins[i%len(wins)]
				if err := eng.Window(dw.rs, dw.start, dw.end); err != nil {
					b.Fatal(err)
				}
				sites += dw.end - dw.start
			}
			b.ReportMetric(float64(sites)/b.Elapsed().Seconds(), "sites/s")
		})
	}
}

// BenchmarkRunWindowGPU is the GPU counterpart. With the device free-lists
// and phased kernel execution in place the simulator itself recycles its
// per-launch machinery, so allocs/op is a real pipeline metric here,
// gated hard by TestRunWindowSteadyStateAllocsGPU above.
func BenchmarkRunWindowGPU(b *testing.B) {
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{
		Name: "chrB", Length: 16000, Depth: 10, MaskFraction: 0.1, Seed: 7,
	})
	eng, wins := newDirectEngine(b, ds, 8000, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	for _, dw := range wins {
		if err := eng.Window(dw.rs, dw.start, dw.end); err != nil {
			b.Fatal(err)
		}
	}
	sites := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dw := wins[i%len(wins)]
		if err := eng.Window(dw.rs, dw.start, dw.end); err != nil {
			b.Fatal(err)
		}
		sites += dw.end - dw.start
	}
	b.ReportMetric(float64(sites)/b.Elapsed().Seconds(), "sites/s")
}

// TestRunContextWarmArena pins the per-run half of the recycle contract.
// An arena that has served one chromosome carries that chromosome's
// calibration counters, score tables and output buffer into the next run,
// which must rebuild all of them in place: the bytes of a run on a warm
// arena equal those of the same run on a fresh one, in every output mode,
// and the warm run allocates less than 1 MB in total — so in particular
// none of the 2 MB counters, the 2 MB p_matrix, the 5.2 MB new_p_matrix
// and the 1 MB output buffer a run used to allocate for itself.
func TestRunContextWarmArena(t *testing.T) {
	first := testDataset(t, 3000, 12, 71)
	second := testDataset(t, 2000, 7, 72)
	cfg := Config{Mode: ModeCPU, SortWorkers: 1, ComputeWorkers: 1}
	for _, mode := range []pipeline.Config{
		{Window: 800},
		{Window: 800, VCFOutput: true},
		{Window: 800, CompressOutput: true},
	} {
		_, want := runGSNP(t, second, mode, cfg)
		warm := cfg
		warm.Arena = NewArena()
		runGSNP(t, first, mode, warm)
		if _, got := runGSNP(t, second, mode, warm); !bytes.Equal(got, want) {
			t.Errorf("%+v: output on an arena warmed by another chromosome differs from a fresh arena's", mode)
		}
	}

	// startRun hands the arena's Scratch to the driver as
	// pipeline.Config.Scratch, so its share of the storage is warm too.
	cfg.Arena = NewArena()
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		if _, err := startRun(context.Background(), eng, first, pipeline.Config{Window: 800}, pipeline.MemSource(first.Reads), io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("a run on a warm arena allocated %d bytes, want < 1 MB", got)
	} else {
		t.Logf("warm-arena run: %d bytes in %d allocations", got, after.Mallocs-before.Mallocs)
	}
}
