package gsnp

import (
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/pipeline"
	"gsnp/internal/sortnet"
)

// runWindowCPU executes components 3-7 of one window on the host: the
// GSNP_CPU configuration of the paper's figures — the same sparse
// algorithm and tables as the GPU path, sequential quicksort instead of
// the batch bitonic network. Components 4b-5 shard sites across
// Config.ComputeWorkers (shardCount ranges of the passes New bound, forked
// through the arena's par.Group; a window worth one shard runs inline);
// each shard writes a disjoint index range, so output is byte-identical at
// every worker count.
func (e *Engine) runWindowCPU(w *window) error {
	rep := e.run.Report

	// Component 3: counting — pack the observations into per-site
	// base_word segments (two-pass: count, then scatter) and accumulate
	// the per-site summaries.
	t0 := time.Now()
	e.countCPU(w)
	rep.Times.Count += time.Since(t0)

	// Component 4a: likelihood_sort — restore the canonical order. The
	// worker count comes from Config.SortWorkers (GOMAXPROCS by default;
	// the paper-comparison harness pins it to 1).
	t0 = time.Now()
	sortnet.ParallelQuicksort(&w.words, e.cfg.SortWorkers)
	rep.Times.LikeliSort += time.Since(t0)
	e.sortStats.ElementsSorted += int64(len(w.words.Data))

	// Component 4b: likelihood_comp — Algorithm 4 with the new score
	// table, sharded over sites.
	t0 = time.Now()
	w.typeLikely = grow(w.typeLikely, w.n*dna.NGenotypes)
	ar, k := e.cfg.Arena, e.shardCount(w.n)
	ar.ensureWorkers(k, e.run.Stride)
	if k == 1 {
		e.likelihoodRange(w, 0, w.n, 0)
	} else {
		ar.join.Range(w.n, k, e.likeliPass)
	}
	rep.Times.LikeliComp += time.Since(t0)

	// Component 5: posterior, sharded over sites. The per-site priors are
	// computed inside the pass (a stack vector per site) instead of being
	// materialised as a w.n*NGenotypes temporary first.
	t0 = time.Now()
	w.bestRank = grow(w.bestRank, w.n)
	w.secondRank = grow(w.secondRank, w.n)
	w.quality = grow(w.quality, w.n)
	if k == 1 {
		e.posteriorRange(w, 0, w.n)
	} else {
		ar.join.Range(w.n, k, e.postPass)
	}
	rep.Times.Post += time.Since(t0)

	// Component 6: output.
	t0 = time.Now()
	if err := e.output(w); err != nil {
		return err
	}
	rep.Times.Output += time.Since(t0)

	// Component 7: recycle — with the sparse representation and the arena
	// there is nothing to sweep: slice lengths reset at the next window,
	// capacity persists, and the tagged dep_count arrays invalidate by
	// epoch.
	t0 = time.Now()
	w.recycle()
	rep.Times.Recycle += time.Since(t0)
	return nil
}

// countCPU builds the per-site base_word segments and summaries, walking
// the runs in table order as countGPU's gather does, so each segment holds
// its words in the same order on both engines. A site's depth is the
// number of runs open at it, summed from +1 at each run's first site and
// −1 at its end. The observation quality and uniq flag are decoded from
// the packed word; the uniq bit sits above the 17-bit sort key and is
// stripped before the word enters the sort batches, preserving the
// canonical ascending order.
func (e *Engine) countCPU(w *window) {
	n := w.n
	w.counts = grow(w.counts, n)
	clear(w.counts)
	w.sizes = grow(w.sizes, n+1)
	clear(w.sizes)
	for _, r := range w.runs {
		w.sizes[r.first]++
		w.sizes[r.end]--
	}
	w.words.Reset(n, len(w.obsWord))
	bounds := w.words.Bounds
	bounds[0] = 0
	depth := int32(0)
	for i := 0; i < n; i++ {
		depth += w.sizes[i]
		bounds[i+1] = bounds[i] + depth
	}
	w.cursor = grow(w.cursor, n)
	copy(w.cursor, bounds)
	data := w.words.Data
	for _, r := range w.runs {
		for k, word := range w.obsWord[r.off : r.off+r.end-r.first] {
			s := int(r.first) + k
			data[w.cursor[s]] = word &^ wordUniqBit
			w.cursor[s]++
			w.counts[s].Add(pipeline.Obs{
				Base: dna.Base(word >> 15 & 3),
				Qual: dna.Quality(dna.QMax - 1 - word>>9&(dna.QMax-1)),
				Uniq: word&wordUniqBit != 0,
			})
		}
	}
}

// likelihoodCompCPU is the sparse likelihood computation (Algorithm 4) on
// the host over the whole window, single-threaded — the entry point tests
// and ablations use directly. runWindowCPU shards the same per-range
// kernel (likelihoodRange) across compute workers instead.
func (e *Engine) likelihoodCompCPU(w *window) {
	w.typeLikely = grow(w.typeLikely, w.n*dna.NGenotypes)
	e.cfg.Arena.ensureWorkers(1, e.run.Stride)
	e.likelihoodRange(w, 0, w.n, 0)
}

// likelihoodRange runs Algorithm 4 over sites [lo, hi) with worker's
// dep_count scratch, using the new score table so no logarithms run at
// call time. dep_count entries carry an epoch tag in the high half-word,
// so re-initialisation per base group (lines 8-10 of Algorithm 4) is one
// epoch increment instead of a memory sweep. Sites are independent — the
// scratch is the only cross-site state, and it is per-worker — so ranges
// run concurrently with bit-identical results.
func (e *Engine) likelihoodRange(w *window, lo, hi, worker int) {
	wk := &e.cfg.Arena.workers[worker]
	readLen := e.run.Stride
	newP := e.tables.NewP
	adj := e.tables.Adjust

	for site := lo; site < hi; site++ {
		seg := w.words.Array(site)
		// The ten genotype sums are locals for the whole site and reach
		// type_likely once at its end; each adds its terms in word order,
		// as a sum kept in memory would, so the bits do not change.
		var l0, l1, l2, l3, l4, l5, l6, l7, l8, l9 float64
		lastBase := -1
		for _, word := range seg {
			base := int(word >> 15 & 3)
			score := int(dna.QMax - 1 - word>>9&(dna.QMax-1))
			coord := int(word >> 1 & (bayes.MaxReadLen - 1))
			strand := int(word & 1)
			if base != lastBase {
				wk.epoch++
				if wk.epoch<<16 == 0 { // tag wrapped: flush stale entries
					clear(wk.dep)
					wk.epoch = 1
				}
				lastBase = base
			}
			tag := wk.epoch << 16
			slot := strand*readLen + coord
			entry := wk.dep[slot]
			cnt := uint32(0)
			if entry&0xFFFF0000 == tag {
				cnt = entry & 0xFFFF
			}
			cnt++
			wk.dep[slot] = tag | cnt
			qadj := adj.Adjust(dna.Quality(score), uint16(cnt))
			idx := bayes.NewPMatrixIndex(qadj, coord, dna.Base(base), 0)
			p := newP[idx : idx+dna.NGenotypes : idx+dna.NGenotypes]
			l0 += p[0]
			l1 += p[1]
			l2 += p[2]
			l3 += p[3]
			l4 += p[4]
			l5 += p[5]
			l6 += p[6]
			l7 += p[7]
			l8 += p[8]
			l9 += p[9]
		}
		tl := w.typeLikely[site*dna.NGenotypes : (site+1)*dna.NGenotypes : (site+1)*dna.NGenotypes]
		tl[0], tl[1], tl[2], tl[3], tl[4], tl[5], tl[6], tl[7], tl[8], tl[9] = l0, l1, l2, l3, l4, l5, l6, l7, l8, l9
	}
}

// posteriorRange runs component 5 over sites [lo, hi): combine the ten
// genotype log-likelihoods with the log priors — computed here per site,
// fused into the pass, from the known sites of the range walked beside
// the sites — and select the best and second-best genotypes.
func (e *Engine) posteriorRange(w *window, lo, hi int) {
	cfg := &e.run.Config
	known := e.run.KnownIn(w.start+lo, w.start+hi)
	for site := lo; site < hi; site++ {
		pos := w.start + site
		ref := cfg.Ref[pos]
		var pri [dna.NGenotypes]float64
		if len(known) > 0 && known[0].Pos == pos {
			pri = cfg.Priors.LogPriors(ref, known[0].SNP)
			known = known[1:]
		} else {
			pri = e.novelPriors[ref]
		}
		posteriorSite(w.typeLikely[site*dna.NGenotypes:(site+1)*dna.NGenotypes],
			pri[:], &w.bestRank[site], &w.secondRank[site], &w.quality[site])
	}
}

// posteriorSite selects the best and second-best genotypes from the ten
// log posteriors. The GPU posterior kernel calls it per site, keeping
// results identical across modes; dense-engine parity is guaranteed
// because bayes.Posterior performs the same loop.
func posteriorSite(tl, priors []float64, best, second, quality *uint8) {
	b, s := -1, -1
	var lb, ls float64
	for r := 0; r < dna.NGenotypes; r++ {
		lp := tl[r] + priors[r]
		switch {
		case b < 0 || lp > lb:
			s, ls = b, lb
			b, lb = r, lp
		case s < 0 || lp > ls:
			s, ls = r, lp
		}
	}
	*best = uint8(b)
	*second = uint8(s)
	q := 10 * (lb - ls)
	if !(q >= 0) { // NaN or negative
		q = 0
	}
	if q > 99 {
		q = 99
	}
	*quality = uint8(q)
}
