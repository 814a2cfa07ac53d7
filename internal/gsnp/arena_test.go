package gsnp

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
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
		rs, err := win.AppendReads(nil, start, end)
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
	_, got := runGSNP(t, ds, pipeline.Config{Window: 700}, Config{Mode: ModeCPU, ComputeWorkers: 4, forceShardWorkers: 4, SortWorkers: 4})
	if !bytes.Equal(got, want) {
		t.Error("ComputeWorkers+SortWorkers output differs from serial")
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
// two sides differ in. A round is best-of-9 per side; the test fails only
// when noRegressionRounds rounds in a row all exceed the bound, so other
// packages' tests holding the second core through one round cannot fail
// it, while a real dispatch overhead exceeds it in every round.
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
		sd := &side{}
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
	// Generous slack: the fix makes cw=4 at worst equal to cw=1 (it
	// serializes when no parallelism is available), so anything beyond
	// noise is a regression.
	const bound = 1.25
	for round := 1; ; round++ {
		// Best of 9, the two sides alternating so that a slow spell of
		// the host falls on both.
		s1.best, s4.best = math.Inf(1), math.Inf(1)
		for trial := 0; trial < 9; trial++ {
			for _, sd := range []*side{s1, s4} {
				start := time.Now()
				sd.pass()
				sd.best = min(sd.best, time.Since(start).Seconds())
			}
		}
		t.Logf("round %d: bench window pass cw=1 %.2fms, cw=4 %.2fms (ratio %.2f)", round, s1.best*1e3, s4.best*1e3, s4.best/s1.best)
		if s4.best <= s1.best*bound {
			return
		}
		if round == noRegressionRounds {
			t.Fatalf("cw=4 window pass exceeded %.2fx the cw=1 pass in %d rounds in a row: adaptive cap failed to remove the dispatch overhead", bound, round)
		}
	}
}

// noRegressionRounds is how many consecutive best-of-9 rounds must exceed
// TestComputeWorkersNoRegression's bound before it fails.
const noRegressionRounds = 3

func TestArenaReuseAcrossRuns(t *testing.T) {
	// One arena handed through Config across consecutive runs — the
	// whole-genome scheduler's per-worker usage — must keep outputs
	// byte-identical while the working set is recycled, including across
	// datasets of different sizes and across CPU/GPU modes.
	dsA := testDataset(t, 2500, 9, 900)
	dsB := testDataset(t, 1200, 6, 901)
	_, wantA := runGSNP(t, dsA, pipeline.Config{Window: 600}, Config{Mode: ModeCPU})
	_, wantB := runGSNP(t, dsB, pipeline.Config{Window: 600}, Config{Mode: ModeCPU})

	arena := new(Arena)
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
// the window recycler: once the arena is warm, a CPU-mode window runs
// components 3-7 — the two sharded passes forked at 4 shards included —
// without allocating. SortWorkers is pinned to 1 — parallel sort spawns its
// goroutines per call and is gated separately by the byte-identity tests.
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
	if perWindow != 0 {
		t.Errorf("steady-state CPU window allocates %.2f times, want 0", perWindow)
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
// equal-sized reallocation. The device's readbacks (bounds, summaries,
// ranks) are read in place from device storage and have no host twin, and
// neither do type_likely and the packed observations.
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

	w := &eng.cfg.Arena.w
	staging := func() []any {
		return []any{&w.runs[:1][0], &w.words.Data[:1][0], &w.words.Bounds[:1][0], &w.counts[:1][0], &w.priorRow[:1][0],
			&w.priorTable[:1][0], &w.bestRank[:1][0], &w.secondRank[:1][0], &w.quality[:1][0], &w.rows[:1][0]}
	}
	names := []string{"runs", "words.Data", "words.Bounds", "counts", "priorRow", "priorTable", "bestRank", "secondRank", "quality", "rows"}
	before := staging()
	runAll()
	for i, p := range staging() {
		if p != before[i] {
			t.Errorf("GPU staging buffer %s was reallocated in steady state", names[i])
		}
	}
	if w.typeLikely != nil {
		t.Error("the GPU window staged type_likely on the host")
	}
	if w.obsWord != nil {
		t.Error("the GPU window packed its observations on the host")
	}
}

// TestColdGPUWindowHostBytes gates the host heap a cold GPU window
// allocates per site, on a fresh arena and device free-list: the storage of
// every device buffer, the host arrays the later components read, the
// rows. The device's readbacks are read in place from device storage and
// the observations are packed straight into it, so a host twin of one of
// them — the twelve summary words a site of a staged copy of count_fill's
// output, 48 B — breaks the bound.
//
// It runs on one host thread and on two, where the launches fan out: which
// recycled scratch runs a launch's block 0 then depends on the schedule, so
// block 0's coalescing-sample streams come from the device, not the scratch.
func TestColdGPUWindowHostBytes(t *testing.T) {
	const sites, bound = 20000, 430.0
	ds := testDataset(t, sites, 10, 91)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		eng, wins := newDirectEngine(t, ds, sites, Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		if err := eng.Window(wins[0].rs, wins[0].start, wins[0].end); err != nil {
			t.Fatal(err)
		}
		metrics.Read(allocs)
		perSite := float64(allocs[0].Value.Uint64()-before) / sites
		if perSite > bound {
			t.Errorf("GOMAXPROCS=%d: a cold GPU window allocated %.1f host bytes a site, gate %.0f", procs, perSite, bound)
		}
		t.Logf("GOMAXPROCS=%d: cold GPU window: %.1f host bytes a site", procs, perSite)
	}
}

// TestGPURunKeepsNoViewOfFreedStorage: the GPU engine builds new_p_matrix
// in its device buffer and packs the observations into theirs. Once a run
// has freed those buffers the device's free-list hands their storage to
// the next allocation — here the next run's, on the same device and arena
// — so the arena must hold no slice of it, and the next run's bytes must
// not change.
func TestGPURunKeepsNoViewOfFreedStorage(t *testing.T) {
	ds := testDataset(t, 2000, 8, 73)
	cfg := Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050()), Arena: new(Arena)}
	var outs [2][]byte
	for i := range outs {
		_, outs[i] = runGSNP(t, ds, pipeline.Config{Window: 700}, cfg)
		if cfg.Arena.tables.NewP != nil || cfg.Arena.w.obsWord != nil {
			t.Errorf("run %d: the arena keeps a view of device storage: new_p_matrix %t, observations %t",
				i, cfg.Arena.tables.NewP != nil, cfg.Arena.w.obsWord != nil)
		}
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("a second run on the same device and arena wrote different bytes")
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
// An arena and a driver Scratch that have served one chromosome carry its
// calibration counters, score tables and output buffer into the next run,
// which must rebuild all of them in place: the bytes of a run on a warm
// pair equal those of the same run on a fresh one, in every output mode,
// and the warm run allocates less than 1 MB in total — so in particular
// none of the 2 MB counters, the 2 MB p_matrix, the 5.2 MB new_p_matrix
// and the 1 MB output buffer a run used to allocate for itself.
func TestRunContextWarmArena(t *testing.T) {
	first := testDataset(t, 3000, 12, 71)
	second := testDataset(t, 2000, 7, 72)
	cfg := Config{Mode: ModeCPU, SortWorkers: 1, ComputeWorkers: 1}
	for _, mode := range []pipeline.Config{
		{Window: 800},
		{Window: 800, Output: pipeline.CodecVCF},
		{Window: 800, Output: pipeline.CodecPacked},
	} {
		_, want := runGSNP(t, second, mode, cfg)
		warm, warmMode := cfg, mode
		warm.Arena, warmMode.Scratch = new(Arena), new(pipeline.Scratch)
		runGSNP(t, first, warmMode, warm)
		if _, got := runGSNP(t, second, warmMode, warm); !bytes.Equal(got, want) {
			t.Errorf("%+v: output on an arena warmed by another chromosome differs from a fresh arena's", mode)
		}
	}

	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := pipeline.Config{Window: 800, Scratch: new(pipeline.Scratch)}
	run := func() {
		if _, err := startRun(context.Background(), eng, first, warm, pipeline.MemSource(first.Reads), io.Discard); err != nil {
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
