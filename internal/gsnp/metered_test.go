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
// of accesses in one counter update — likelihood_comp in all four variants
// and posterior — and count_scatter, whose Execs fold into one, to their
// per-access forms kept below: each access and Exec metered on its own, in
// the order the device program issues them. Every launch's LaunchStats
// (counters, warp instructions, coalescing factor), the device totals and
// the output bytes must match. The window has fuzzBlocks·likeliBlock sites,
// so at GOMAXPROCS=3 the per-site kernels fan out over three host
// goroutines. The counting kernels run at GOMAXPROCS=1 only: the slot an
// atomic hands a word depends on how blocks interleave, in either form.
func TestMeteredRunsMatchPerAccess(t *testing.T) {
	eng, err := New(Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
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

	countOut := func() []uint64 {
		return words64(w.words.Data, w.hostBounds, w.hostStats)
	}
	check("count", []int{1}, func() []uint64 { eng.countGPU(w); return countOut() }, func() []uint64 {
		w.words.Data, w.hostBounds, w.hostStats = eng.countPerAccess(w)
		return countOut()
	})
	eng.countGPU(w)
	sortnet.ParallelQuicksort(&w.words, 1)

	for _, v := range []Variant{VariantOptimized, VariantBaseline, VariantShared, VariantNewTable} {
		eng.cfg.Variant = v
		check("likelihood_comp_"+v.String(), []int{1, 3},
			func() []uint64 { eng.likelihoodCompGPU(w); return floats64(w.typeLikely) },
			func() []uint64 { return floats64(eng.likelihoodPerAccess(w)) })
	}
	eng.cfg.Variant = VariantOptimized
	eng.likelihoodCompGPU(w)

	priors := make([]float64, len(w.typeLikely))
	for i := range priors {
		priors[i] = -float64(i%17) / 3
	}
	check("posterior", []int{1, 3}, func() []uint64 {
		eng.posteriorGPU(w, priors)
		return words64(w.hostBest, w.hostSecond, w.hostQual)
	}, func() []uint64 { return words64(eng.posteriorPerAccess(w, priors)) })
}

// meteredWindow returns a window over fuzzBlocks·likeliBlock sites with
// 0-8 observations a site in a scattered order, a 400-deep site in block 0
// and an empty tail, flattened into obsSite/obsWord as read_site leaves it.
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
	for site := 0; site < n-1000; site++ {
		depth := int(next() % 9)
		if site == 5 {
			depth = 400
		}
		for k := 0; k < depth; k++ {
			r := next()
			s := (site*40503 + k) % (n - 1000)
			w.obsSite = append(w.obsSite, uint32(s))
			w.obsWord = append(w.obsWord, packWord(dna.Base(r&3), dna.Quality(r>>2%dna.QMax), int(r>>8)%readLen, r>>16&1|r>>17&1*wordUniqBit))
		}
	}
	return w
}

// words64 and floats64 flatten kernel outputs for comparison.
func words64(cols ...[]uint32) []uint64 {
	var out []uint64
	for _, c := range cols {
		for _, v := range c {
			out = append(out, uint64(v))
		}
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

// countPerAccess is countGPU's device program with count_scatter's Execs
// issued where the instructions sit, and each atomic metered as the load
// and store it is. It returns the scattered words, the segment bounds and
// the per-(site, base) sums.
func (e *Engine) countPerAccess(w *window) (words, bounds, stats []uint32) {
	d := e.cfg.Device
	n, m := w.n, len(w.obsWord)
	obsSite := gpu.Alloc[uint32](d, m)
	defer obsSite.Free()
	obsSite.CopyIn(w.obsSite)
	obsWord := gpu.Alloc[uint32](d, m)
	defer obsWord.Free()
	obsWord.CopyIn(w.obsWord)
	siteCount := gpu.Alloc[uint32](d, n)
	defer siteCount.Free()
	gBounds := gpu.Alloc[uint32](d, n)
	defer gBounds.Free()
	atomicAdd := func(t *gpu.Thread, b *gpu.Buffer[uint32], i int, v uint32) uint32 {
		old := gpu.Ld(t, b, i)
		gpu.St(t, b, i, old+v)
		return old
	}
	cfg := gpu.LaunchConfig{Name: "count_sites", Grid: (m + likeliBlock - 1) / likeliBlock, Block: likeliBlock}
	d.MustLaunch(cfg, func(t *gpu.Thread) {
		if i := t.GlobalID(); i < m {
			atomicAdd(t, siteCount, int(gpu.Ld(t, obsSite, i)), 1)
		}
	})
	gpu.ExclusiveScanU32(d, siteCount, gBounds)
	gWords := gpu.Alloc[uint32](d, m)
	defer gWords.Free()
	cursor := gpu.Alloc[uint32](d, n)
	defer cursor.Free()
	gStats := gpu.Alloc[uint32](d, 3*4*n)
	defer gStats.Free()
	cfg.Name = "count_scatter"
	d.MustLaunch(cfg, func(t *gpu.Thread) {
		i := t.GlobalID()
		if i >= m {
			return
		}
		site := int(gpu.Ld(t, obsSite, i))
		word := gpu.Ld(t, obsWord, i)
		t.Exec(3)
		off := gpu.Ld(t, gBounds, site) + atomicAdd(t, cursor, site, 1)
		gpu.St(t, gWords, int(off), word&^wordUniqBit)
		base := int(word >> 15 & 3)
		qual := dna.QMax - 1 - word>>9&(dna.QMax-1)
		uniq := word >> 18 & 1
		t.Exec(2)
		sb := site*4 + base
		atomicAdd(t, gStats, sb, 1)
		atomicAdd(t, gStats, 4*n+sb, qual)
		atomicAdd(t, gStats, 8*n+sb, uniq)
	})
	words, bounds, stats = make([]uint32, m), make([]uint32, n), make([]uint32, 3*4*n)
	gBounds.CopyOut(bounds)
	gStats.CopyOut(stats)
	gWords.CopyOut(words)
	return words, bounds, stats
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
// type_likely and prior loads interleaved, genotype by genotype, and
// returns the best and second-best ranks and the quality.
func (e *Engine) posteriorPerAccess(w *window, priors []float64) (best, second, qual []uint32) {
	d := e.cfg.Device
	n := w.n
	gTL := gpu.Alloc[float64](d, len(w.typeLikely))
	defer gTL.Free()
	gTL.CopyIn(w.typeLikely)
	gPri := gpu.Alloc[float64](d, len(priors))
	defer gPri.Free()
	gPri.CopyIn(priors)
	gBest, gSecond, gQual := gpu.Alloc[uint32](d, n), gpu.Alloc[uint32](d, n), gpu.Alloc[uint32](d, n)
	defer gBest.Free()
	defer gSecond.Free()
	defer gQual.Free()
	d.MustLaunch(gpu.LaunchConfig{Name: "posterior", Grid: (n + likeliBlock - 1) / likeliBlock, Block: likeliBlock}, func(t *gpu.Thread) {
		site := t.GlobalID()
		if site >= n {
			return
		}
		b, s := -1, -1
		var lb, ls float64
		for r := 0; r < dna.NGenotypes; r++ {
			lp := gpu.Ld(t, gTL, site*dna.NGenotypes+r) + gpu.Ld(t, gPri, site*dna.NGenotypes+r)
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
