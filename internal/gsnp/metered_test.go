package gsnp

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/sortnet"
)

// TestMeteredRunsMatchPerAccess holds the window kernels that charge runs
// of accesses in one counter update — count_depth and count_fill, which
// load a site's runs as one slice and store its summaries as one run,
// likelihood_comp in all four variants and posterior — to their per-access
// forms kept below: each access and Exec metered on its own, in the order
// the device program issues them. Every launch's LaunchStats (counters,
// warp instructions, coalescing factor), the device totals and the output
// bytes must match. The window has fuzzBlocks·likeliBlock sites, so at
// GOMAXPROCS=3 the per-site kernels fan out over three host goroutines;
// counting has no atomic, so its words land in the same slots either way.
func TestMeteredRunsMatchPerAccess(t *testing.T) {
	// Loaded for the baseline variant, the tables include p_matrix, which
	// two of the four likelihood variants below read.
	eng, err := New(Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050()), Variant: VariantBaseline})
	if err != nil {
		t.Fatal(err)
	}
	eng.tables = testTables()
	eng.run = &pipeline.RunState{Stride: pipeline.MinStride}
	if err := eng.loadTables(); err != nil {
		t.Fatal(err)
	}
	defer eng.unloadTables()
	d := eng.cfg.Device
	w := meteredWindow(eng.run.Stride)

	type result struct {
		launches []gpu.LaunchStats
		totals   gpu.Stats
		out      []uint64
	}
	measure := func(procs int, form func() []uint64) result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		d.ResetStats()
		out := form()
		return result{d.Launches(), d.Stats(), out}
	}
	check := func(name string, procs []int, runs, perAccess func() []uint64) {
		t.Helper()
		want := measure(1, perAccess)
		if len(want.launches) == 0 || want.totals.GlobalTransactions == 0 {
			t.Fatalf("%s: per-access form metered nothing: %+v", name, want.totals)
		}
		for _, p := range procs {
			got := measure(p, runs)
			if !reflect.DeepEqual(got.launches, want.launches) {
				t.Errorf("%s, GOMAXPROCS=%d: launches differ from the per-access form:\n got %+v\nwant %+v", name, p, got.launches, want.launches)
			}
			if got.totals != want.totals {
				t.Errorf("%s, GOMAXPROCS=%d: device totals differ:\n got %+v\nwant %+v", name, p, got.totals, want.totals)
			}
			if !slices.Equal(got.out, want.out) {
				t.Errorf("%s, GOMAXPROCS=%d: output differs from the per-access form", name, p)
			}
		}
	}

	bounds := gpu.Alloc[uint32](d, w.n+1)
	defer bounds.Free()
	countOut := func() []uint64 {
		return words64(w.words.Data, summariesOf(w), bounds.Host())
	}
	check("count", []int{1, 3}, func() []uint64 { eng.countGPUHost(w, bounds); return countOut() }, func() []uint64 {
		eng.countPerAccess(w, bounds)
		return countOut()
	})
	eng.countGPUHost(w, bounds)
	sortnet.ParallelQuicksort(&w.words, 1)

	for _, v := range []Variant{VariantOptimized, VariantBaseline, VariantShared, VariantNewTable} {
		eng.cfg.Variant = v
		check("likelihood_comp_"+v.String(), []int{1, 3},
			func() []uint64 { eng.likelihoodCompGPU(w); return floats64(w.typeLikely) },
			func() []uint64 { return floats64(eng.likelihoodPerAccess(w)) })
	}
	eng.cfg.Variant = VariantOptimized
	eng.likelihoodCompGPU(w)

	gTL := gpu.Alloc[float64](d, len(w.typeLikely))
	defer gTL.Free()
	gTL.CopyIn(w.typeLikely)
	// Four novel rows and a known row for every seventh site.
	w.priorTable = make([]float64, 4*dna.NGenotypes)
	w.priorRow = make([]uint32, w.n)
	for site := range w.priorRow {
		w.priorRow[site] = uint32(site % 4)
		if site%7 == 0 {
			w.priorRow[site] = uint32(len(w.priorTable) / dna.NGenotypes)
			w.priorTable = append(w.priorTable, make([]float64, dna.NGenotypes)...)
		}
	}
	for i := range w.priorTable {
		w.priorTable[i] = -float64(i%17) / 3
	}
	check("posterior", []int{1, 3}, func() []uint64 {
		eng.posteriorGPU(w, gTL)
		return words64(widen(w.bestRank), widen(w.secondRank), widen(w.quality))
	}, func() []uint64 { return words64(eng.posteriorPerAccess(w, gTL)) })
}

// meteredWindow returns a window over fuzzBlocks·likeliBlock sites as
// flatten leaves it: at each site up to two runs of 1-16 sites beginning
// there, 400 runs over site 5 in block 0, and an empty tail of 1000 sites.
func meteredWindow(readLen int) *window {
	n := fuzzBlocks * likeliBlock
	w := &window{start: 0, end: n, n: n}
	x := uint32(2463534242)
	next := func() uint32 {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		return x
	}
	for first := 0; first < n-1000-18; first++ {
		runs := int(next() % 3)
		if first == 5 {
			runs = 400
		}
		for ; runs > 0; runs-- {
			end := first + 1 + int(next()>>2%16)
			w.runs = append(w.runs, obsRun{uint32(first), uint32(end), uint32(len(w.obsWord))})
			w.maxExtent = max(w.maxExtent, end-first)
			for s := first; s < end; s++ {
				r := next()
				w.obsWord = append(w.obsWord, packWord(dna.Base(r&3), dna.Quality(r>>2%dna.QMax), int(r>>8)%readLen, r>>16&1|r>>17&1*wordUniqBit))
			}
		}
	}
	return w
}

// words64, widen and floats64 flatten kernel outputs for comparison.
func words64(cols ...[]uint32) []uint64 {
	var out []uint64
	for _, c := range cols {
		for _, v := range c {
			out = append(out, uint64(v))
		}
	}
	return out
}

func widen(v []uint8) []uint32 {
	out := make([]uint32, len(v))
	for i, x := range v {
		out[i] = uint32(x)
	}
	return out
}

func floats64(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// countPerAccess is countGPU's device program with every access metered on
// its own: a thread's runs loaded one by one, each Exec where its
// instructions sit, the twelve summaries stored one by one. It leaves the
// segments, bounds and summaries in w as countGPU does.
func (e *Engine) countPerAccess(w *window, bounds *gpu.Buffer[uint32]) {
	d := e.cfg.Device
	n, m, nr, ext := w.n, len(w.obsWord), len(w.runs), w.maxExtent
	runs := gpu.Alloc[obsRun](d, nr)
	defer runs.Free()
	runs.CopyIn(w.runs)
	obsWord := gpu.Alloc[uint32](d, m)
	defer obsWord.Free()
	obsWord.CopyIn(w.obsWord)
	index := gpu.Alloc[uint32](d, n+1)
	defer index.Free()
	countIndex(d, runs, index, n, nr)
	near := func(t *gpu.Thread, s int) []obsRun {
		t.Exec(2)
		lo := int(gpu.Ld(t, index, max(0, s-ext+1)))
		hi := int(gpu.Ld(t, index, s+1))
		var rs []obsRun
		for k := lo; k < hi; k++ {
			rs = append(rs, gpu.Ld(t, runs, k))
		}
		return rs
	}
	depth := gpu.Alloc[uint32](d, n+1)
	defer depth.Free()
	cfg := gpu.LaunchConfig{Name: "count_depth", Grid: (n + likeliBlock - 1) / likeliBlock, Block: likeliBlock}
	d.MustLaunch(cfg, func(t *gpu.Thread) {
		s := t.GlobalID()
		if s >= n {
			return
		}
		c := uint32(0)
		for _, r := range near(t, s) {
			t.Exec(2)
			if covers(r, s) {
				c++
			}
		}
		gpu.St(t, depth, s, c)
	})
	gpu.ExclusiveScanU32(d, depth, bounds)
	words := gpu.Alloc[uint32](d, m)
	defer words.Free()
	stats := gpu.Alloc[uint32](d, siteStats*n)
	defer stats.Free()
	cfg.Name = "count_fill"
	d.MustLaunch(cfg, func(t *gpu.Thread) {
		s := t.GlobalID()
		if s >= n {
			return
		}
		rs := near(t, s)
		k := int(gpu.Ld(t, bounds, s))
		var sum [siteStats]uint32
		for _, r := range rs {
			t.Exec(2)
			if !covers(r, s) {
				continue
			}
			word := gpu.Ld(t, obsWord, int(r.off)+s-int(r.first))
			gpu.St(t, words, k, word&^wordUniqBit)
			k++
			base := word >> 15 & 3
			sum[base]++
			sum[4+base] += dna.QMax - 1 - word>>9&(dna.QMax-1)
			sum[8+base] += word >> 18 & 1
			t.Exec(6)
		}
		for i, v := range sum {
			gpu.St(t, stats, siteStats*s+i, v)
		}
	})
	w.readCounts(bounds, stats)
	w.copySegments(words, bounds)
}

// likelihoodPerAccess is likelihoodCompGPU's device program, every access
// and Exec metered on its own, and returns type_likely.
func (e *Engine) likelihoodPerAccess(w *window) []float64 {
	d := e.cfg.Device
	n, readLen := w.n, e.run.Stride
	words := gpu.Alloc[uint32](d, len(w.words.Data))
	defer words.Free()
	words.CopyIn(w.words.Data)
	bounds := gpu.Alloc[uint32](d, n+1)
	defer bounds.Free()
	for i, b := range w.words.Bounds {
		bounds.Host()[i] = uint32(b)
	}
	bounds.CopyIn(bounds.Host())
	gTL := gpu.Alloc[float64](d, n*dna.NGenotypes)
	defer gTL.Free()
	variant := e.cfg.Variant
	useShared := variant == VariantOptimized || variant == VariantShared
	useNewTable := variant == VariantOptimized || variant == VariantNewTable
	cfg := gpu.LaunchConfig{
		Name: "likelihood_comp_" + variant.String(), Grid: (n + likeliBlock - 1) / likeliBlock,
		Block: likeliBlock, LocalU32: 2 * readLen,
	}
	if useShared {
		cfg.SharedF64 = likeliBlock * dna.NGenotypes
	}
	newP, pmat, adj := e.gNewP, e.gP, e.cAdj
	d.MustLaunch(cfg, func(t *gpu.Thread) {
		site := t.GlobalID()
		if site >= n {
			return
		}
		lo := int(gpu.Ld(t, bounds, site))
		hi := int(gpu.Ld(t, bounds, site+1))
		shBase := t.Lane * dna.NGenotypes
		add := func(r int, v float64) {
			if useShared {
				t.AddSharedF64(shBase+r, v)
			} else {
				i := site*dna.NGenotypes + r
				gpu.St(t, gTL, i, gpu.Ld(t, gTL, i)+v)
			}
		}
		for r := 0; r < dna.NGenotypes; r++ {
			if useShared {
				t.SetSharedF64(shBase+r, 0)
			} else {
				gpu.St(t, gTL, site*dna.NGenotypes+r, 0)
			}
		}
		lastBase := -1
		var tag uint32
		for k := lo; k < hi; k++ {
			word := gpu.Ld(t, words, k)
			base := int(word >> 15 & 3)
			score := int(dna.QMax - 1 - word>>9&(dna.QMax-1))
			coord := int(word >> 1 & (bayes.MaxReadLen - 1))
			strand := int(word & 1)
			t.Exec(4)
			if base != lastBase {
				tag = uint32(base+1) << 16
				lastBase = base
				t.Exec(1)
			}
			slot := strand*readLen + coord
			entry := t.LocalU32(slot)
			cnt := uint32(0)
			if entry&0xFFFF0000 == tag {
				cnt = entry & 0xFFFF
			}
			cnt++
			t.SetLocalU32(slot, tag|cnt)
			t.Exec(2)
			dcap := min(int(cnt)-1, bayes.NQ-1)
			qadj := max(score-int(gpu.CLd(t, adj, dcap)), 0)
			t.Exec(2)
			if useNewTable {
				idx := bayes.NewPMatrixIndex(dna.Quality(qadj), coord, dna.Base(base), 0)
				t.Exec(2)
				for r := 0; r < dna.NGenotypes; r++ {
					add(r, gpu.Ld(t, newP, idx+r))
				}
				continue
			}
			r := 0
			for a1 := dna.Base(0); a1 < dna.NBases; a1++ {
				for a2 := a1; a2 < dna.NBases; a2++ {
					p1 := gpu.Ld(t, pmat, bayes.PMatrixIndex(dna.Quality(qadj), coord, a1, dna.Base(base)))
					p2 := gpu.Ld(t, pmat, bayes.PMatrixIndex(dna.Quality(qadj), coord, a2, dna.Base(base)))
					v := t.Log10(0.5*p1 + 0.5*p2)
					t.Exec(2)
					add(r, v)
					r++
				}
			}
		}
		if useShared {
			for r := 0; r < dna.NGenotypes; r++ {
				gpu.St(t, gTL, site*dna.NGenotypes+r, t.SharedF64(shBase+r))
			}
		}
	})
	out := make([]float64, n*dna.NGenotypes)
	gTL.CopyOut(out)
	return out
}

// posteriorPerAccess is posteriorGPU's device program with each site's
// type_likely and prior loads interleaved, genotype by genotype, after the
// load of its prior row, and returns the best and second-best ranks and the
// quality.
func (e *Engine) posteriorPerAccess(w *window, gTL *gpu.Buffer[float64]) (best, second, qual []uint32) {
	d := e.cfg.Device
	n := w.n
	gRow := gpu.Alloc[uint32](d, n)
	defer gRow.Free()
	gRow.CopyIn(w.priorRow)
	gPri := gpu.Alloc[float64](d, len(w.priorTable))
	defer gPri.Free()
	gPri.CopyIn(w.priorTable)
	gBest, gSecond, gQual := gpu.Alloc[uint32](d, n), gpu.Alloc[uint32](d, n), gpu.Alloc[uint32](d, n)
	defer gBest.Free()
	defer gSecond.Free()
	defer gQual.Free()
	d.MustLaunch(gpu.LaunchConfig{Name: "posterior", Grid: (n + likeliBlock - 1) / likeliBlock, Block: likeliBlock}, func(t *gpu.Thread) {
		site := t.GlobalID()
		if site >= n {
			return
		}
		row := int(gpu.Ld(t, gRow, site))
		b, s := -1, -1
		var lb, ls float64
		for r := 0; r < dna.NGenotypes; r++ {
			lp := gpu.Ld(t, gTL, site*dna.NGenotypes+r) + gpu.Ld(t, gPri, row*dna.NGenotypes+r)
			t.Exec(2)
			switch {
			case b < 0 || lp > lb:
				s, ls = b, lb
				b, lb = r, lp
			case s < 0 || lp > ls:
				s, ls = r, lp
			}
		}
		q := 10 * (lb - ls)
		if !(q >= 0) {
			q = 0
		}
		t.Exec(3)
		gpu.St(t, gBest, site, uint32(b))
		gpu.St(t, gSecond, site, uint32(s))
		gpu.St(t, gQual, site, uint32(min(q, 99)))
	})
	best, second, qual = make([]uint32, n), make([]uint32, n), make([]uint32, n)
	gBest.CopyOut(best)
	gSecond.CopyOut(second)
	gQual.CopyOut(qual)
	return best, second, qual
}
