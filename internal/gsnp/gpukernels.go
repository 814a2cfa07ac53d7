package gsnp

import (
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
	"gsnp/internal/sortnet"
)

// zeroTL is the zero type_likely row a likelihood thread starts from.
var zeroTL [dna.NGenotypes]float64

// likeliBlock is the thread-block size of the per-site kernels. With
// shared-memory type_likely each thread needs ten float64 slots: 256
// threads use 20 KB of the 48 KB per block.
const likeliBlock = 256

// runWindowGPU executes components 3-7 of one window on the simulated
// device. Between kernels the window's data stays on the device where the
// next component reads it: the segment bounds from counting into
// likelihood_comp, type_likely from likelihood_comp into posterior. The
// priors go up as a table of the window's distinct prior rows and a row
// index per site (buildPriors), not as ten values a site.
func (e *Engine) runWindowGPU(w *window, rs []reads.AlignedRead) error {
	rep := e.run.Report
	d := e.cfg.Device

	// Component 3: counting — the host leg packs the window's
	// observations, then one thread per site gathers its base_word
	// segment and per-base summaries from the read runs.
	bounds := gpu.Alloc[uint32](d, w.n+1)
	defer bounds.Free()
	e.countDevice(w, rs, bounds)

	// Component 4a: likelihood_sort — multipass batch bitonic by default.
	var st sortnet.Stats
	switch e.cfg.Sort {
	case SortSinglePass:
		st = sortnet.SinglePassBitonic(d, &w.words)
	case SortNonEq:
		st = sortnet.NonEqBitonic(d, &w.words)
	default:
		st = sortnet.MultipassBitonic(d, &w.words)
	}
	e.sortStats.Launches += st.Launches
	e.sortStats.SimSeconds += st.SimSeconds
	e.sortStats.ElementsSorted += st.ElementsSorted
	rep.Times.LikeliSort += time.Duration(st.SimSeconds * float64(time.Second))

	// Component 4b: likelihood_comp.
	gTL := gpu.Alloc[float64](d, w.n*dna.NGenotypes)
	defer gTL.Free()
	before := d.Stats()
	sim := e.simSpan(func() { e.likelihoodCompDevice(w, bounds, gTL) })
	delta := d.Stats().Sub(before)
	delta.SimSeconds = 0
	e.likeliStats.Add(delta)
	rep.Times.LikeliComp += sim

	// Component 5: posterior.
	t0 := time.Now()
	e.buildPriors(w)
	hostPrep := time.Since(t0)
	sim = e.simSpan(func() { e.posteriorGPU(w, gTL) })
	rep.Times.Post += sim + hostPrep

	// Component 6: output — row assembly on the host (wall time), column
	// compression on the device (simulated time; the simulator's own host
	// cost of emulating the kernels is excluded).
	t0 = time.Now()
	rows := e.buildRows(w)
	rowWall := time.Since(t0)
	var outErr error
	sim = e.simSpan(func() { outErr = e.writeRows(rows) })
	if outErr != nil {
		return outErr
	}
	rep.Times.Output += rowWall + sim

	// Component 7: recycle — the sparse representation leaves nothing to
	// sweep: dep_count lived in each likelihood thread's local memory, the
	// device buffers go back to the device free-list as each component
	// finishes (bounds and type_likely as the window returns), and the
	// per-window host arrays return to the arena with lengths reset.
	t0 = time.Now()
	w.recycle()
	rep.Times.Recycle += time.Since(t0)
	return nil
}

// countDevice runs component 3 on the device: the host leg packs the
// window's observations straight into the storage of the device buffer
// countGPU reads them from, with no host copy of them, and the buffer is
// freed as soon as counting is done.
func (e *Engine) countDevice(w *window, rs []reads.AlignedRead, bounds *gpu.Buffer[uint32]) {
	rep := e.run.Report
	t0 := time.Now()
	obsWord := gpu.Alloc[uint32](e.cfg.Device, w.obsCount(rs))
	defer obsWord.Free()
	w.flattenInto(rs, obsWord.Host())
	rep.Times.Count += time.Since(t0)
	rep.Times.Count += e.simSpan(func() { e.countGPU(w, obsWord, bounds) })
}

// countGPU runs the counting component's kernels. One thread per site
// gathers the site's words from the runs that cover it, in run order —
// countCPU's order — so each word and each summary has exactly one writer
// and no atomic decides where a word lands:
//
//	count_index  one thread per run: index[s] = the first run whose first
//	             site is at least s, each entry written once;
//	count_depth  one thread per site: the runs whose first site lies in
//	             (s-maxExtent, s] and that cover s;
//	scan_u32     the depths' exclusive scan over n+1 entries, so bounds[n]
//	             is the word count;
//	count_fill   one thread per site: the same runs again, each covering
//	             run's word stored at the site's next slot and its count,
//	             quality sum and uniq flag summed per base in registers.
//
// obsWord holds the runs' words, packed in place by flattenInto; its
// self-CopyIn meters their upload. bounds (n+1 entries) stays on the device
// for likelihood_comp; the words, the bounds and the per-site summaries are
// read back for the host sort and the rows (readCounts).
func (e *Engine) countGPU(w *window, obsWord, bounds *gpu.Buffer[uint32]) {
	d := e.cfg.Device
	n, m, nr, ext := w.n, obsWord.Len(), len(w.runs), w.maxExtent

	runs := gpu.Alloc[obsRun](d, nr)
	defer runs.Free()
	runs.CopyIn(w.runs)
	obsWord.CopyIn(obsWord.Host())

	index := gpu.Alloc[uint32](d, n+1)
	defer index.Free()
	countIndex(d, runs, index, n, nr)

	// depth[n] stays zero, so the scan's total lands in bounds[n].
	depth := gpu.Alloc[uint32](d, n+1)
	defer depth.Free()
	siteGrid := (n + likeliBlock - 1) / likeliBlock
	d.MustLaunch(gpu.LaunchConfig{Name: "count_depth", Grid: siteGrid, Block: likeliBlock}, func(t *gpu.Thread) {
		s := t.GlobalID()
		if s >= n {
			return
		}
		near := runsNear(t, runs, index, s, ext)
		t.Exec(2 * len(near))
		c := uint32(0)
		for _, r := range near {
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
	d.MustLaunch(gpu.LaunchConfig{Name: "count_fill", Grid: siteGrid, Block: likeliBlock}, func(t *gpu.Thread) {
		s := t.GlobalID()
		if s >= n {
			return
		}
		near := runsNear(t, runs, index, s, ext)
		k := int(gpu.Ld(t, bounds, s))
		t.Exec(2 * len(near))
		var sum [siteStats]uint32 // count, qualsum, uniq per base: registers
		for _, r := range near {
			if !covers(r, s) {
				continue
			}
			word := gpu.Ld(t, obsWord, int(r.off)+s-int(r.first))
			// The uniq flag rides above the 17-bit sort key; strip it so
			// the segment sorts in the canonical base_word order.
			gpu.St(t, words, k, word&^wordUniqBit)
			k++
			base := word >> 15 & 3
			sum[base]++
			sum[4+base] += dna.QMax - 1 - word>>9&(dna.QMax-1)
			sum[8+base] += word >> 18 & 1
			t.Exec(6)
		}
		gpu.StRun(t, stats, siteStats*s, sum[:])
	})

	w.readCounts(bounds, words, stats)
}

// readCounts reads counting's output back and assembles the host-side
// structures the later components use: the segments with their bounds, and
// the per-site summaries. The bounds' first n entries and the summaries are
// read back in place (self-CopyOut) and read through Host; the words go to
// the window's sort batches.
func (w *window) readCounts(bounds, words, stats *gpu.Buffer[uint32]) {
	n, m := w.n, words.Len()
	hostBounds := bounds.Host()[:n]
	bounds.CopyOut(hostBounds)
	hostStats := stats.Host()
	stats.CopyOut(hostStats)

	w.words.Reset(n, m)
	words.CopyOut(w.words.Data)
	b := w.words.Bounds
	for i, x := range hostBounds {
		b[i] = int32(x)
	}
	b[n] = int32(m)
	w.counts = grow(w.counts, n)
	// The device accumulates in uint32; clamping on readback matches the
	// CPU path's saturating counters (pipeline.SiteCounts.Add).
	for site := 0; site < n; site++ {
		c := &w.counts[site]
		c.Depth = pipeline.SatDepth(uint32(b[site+1] - b[site]))
		st := hostStats[siteStats*site:][:siteStats]
		for base := 0; base < 4; base++ {
			c.Count[base] = pipeline.SatDepth(st[base])
			c.QualSum[base] = st[4+base]
			c.Uniq[base] = pipeline.SatDepth(st[8+base])
		}
	}
}

// countIndex launches count_index over the nr runs, sorted by first site,
// and the n+1 entries of index: thread i stores i at the entries (first of
// run i-1, first of run i], thread nr at those past the last run's first
// site, so index[s] is the first run whose first site is at least s.
func countIndex(d *gpu.Device, runs *gpu.Buffer[obsRun], index *gpu.Buffer[uint32], n, nr int) {
	d.MustLaunch(gpu.LaunchConfig{Name: "count_index", Grid: nr/likeliBlock + 1, Block: likeliBlock}, func(t *gpu.Thread) {
		i := t.GlobalID()
		if i > nr {
			return
		}
		lo, hi := 0, n
		if i > 0 {
			lo = int(gpu.Ld(t, runs, i-1).first) + 1
		}
		if i < nr {
			hi = int(gpu.Ld(t, runs, i).first)
		}
		t.Exec(2)
		for s := lo; s <= hi; s++ {
			gpu.St(t, index, s, uint32(i))
		}
	})
}

// siteStats is the number of per-site summaries count_fill stores: count,
// quality sum and uniq count for each of the four bases.
const siteStats = 3 * 4

// runsNear loads the runs that can cover site s — those whose first site
// lies in (s-ext, s], one contiguous slice of the sorted table — as a view
// valid within the kernel invocation.
func runsNear(t *gpu.Thread, runs *gpu.Buffer[obsRun], index *gpu.Buffer[uint32], s, ext int) []obsRun {
	t.Exec(2)
	lo := int(gpu.Ld(t, index, max(0, s-ext+1)))
	hi := int(gpu.Ld(t, index, s+1))
	return gpu.LdRun(t, runs, lo, hi-lo)
}

// covers reports whether run r has a kept observation at site s.
func covers(r obsRun, s int) bool { return int(r.first) <= s && s < int(r.end) }

// likelihoodCompDevice launches the likelihood_comp kernel variant
// configured for the engine: one thread per site over the sorted base_word
// segments (Algorithm 4), uploaded from the host sort, whose bounds counting
// left on the device. It writes type_likely to gTL.
func (e *Engine) likelihoodCompDevice(w *window, bounds *gpu.Buffer[uint32], gTL *gpu.Buffer[float64]) {
	d := e.cfg.Device
	n := w.n
	readLen := e.run.Stride

	words := gpu.Alloc[uint32](d, len(w.words.Data))
	defer words.Free()
	words.CopyIn(w.words.Data)

	variant := e.cfg.Variant
	useShared := variant == VariantOptimized || variant == VariantShared
	useNewTable := variant == VariantOptimized || variant == VariantNewTable
	block := likeliBlock
	if useShared {
		// Each thread stages ten float64 likelihoods in shared memory;
		// shrink the block on devices with smaller shared memory (e.g.
		// GT200's 16 KB) so the kernel still fits.
		perThread := dna.NGenotypes * 8
		if max := d.Config().SharedMemPerBlock / perThread; block > max {
			block = max / 32 * 32
			if block < 32 {
				block = 32
			}
		}
	}
	// dep_count is the thread's own: 2·readLen words of local memory,
	// strand-major, zero when the thread starts.
	cfgLaunch := gpu.LaunchConfig{
		Name:     "likelihood_comp_" + variant.String(),
		Grid:     (n + block - 1) / block,
		Block:    block,
		LocalU32: 2 * readLen,
	}
	if useShared {
		cfgLaunch.SharedF64 = block * dna.NGenotypes
	}

	newP := e.gNewP
	pmat := e.gP
	adj := e.cAdj
	d.MustLaunch(cfgLaunch, func(t *gpu.Thread) {
		site := t.GlobalID()
		if site >= n {
			return
		}
		b := gpu.LdRun(t, bounds, site, 2)
		lo, hi := int(b[0]), int(b[1])
		shBase := t.Lane * dna.NGenotypes
		tl := site * dna.NGenotypes

		// Initialise type_likely (line 4 of Algorithm 4).
		if useShared {
			t.SetSharedF64Run(shBase, zeroTL[:])
		} else {
			gpu.StRun(t, gTL, tl, zeroTL[:])
		}

		lastBase := -1
		var tag uint32
		for k := lo; k < hi; k++ {
			word := gpu.Ld(t, words, k)
			base := int(word >> 15 & 3)
			score := int(dna.QMax - 1 - word>>9&(dna.QMax-1))
			coord := int(word >> 1 & (bayes.MaxReadLen - 1))
			strand := int(word & 1)
			exec := 8 // field extraction, dep_count update, adjust: one Exec

			if base != lastBase {
				// Re-initialising dep_count per base group (lines 8-10)
				// costs one tag change: an entry counts only under its
				// base's tag, and a fresh thread's zero words match none.
				tag = uint32(base+1) << 16
				lastBase = base
				exec++
			}
			slot := strand*readLen + coord
			entry := t.LocalU32(slot)
			cnt := uint32(0)
			if entry&0xFFFF0000 == tag {
				cnt = entry & 0xFFFF
			}
			cnt++
			t.SetLocalU32(slot, tag|cnt)

			// adjust (line 12): constant-memory penalty lookup.
			dcap := int(cnt) - 1
			if dcap >= int(bayes.NQ) {
				dcap = bayes.NQ - 1
			}
			pen := int(gpu.CLd(t, adj, dcap))
			qadj := score - pen
			if qadj < 0 {
				qadj = 0
			}

			if useNewTable {
				// Algorithm 3: one table read per genotype.
				idx := bayes.NewPMatrixIndex(dna.Quality(qadj), coord, dna.Base(base), 0)
				t.Exec(exec + 2)
				if useShared {
					t.AddSharedF64Run(shBase, gpu.LdRun(t, newP, idx, dna.NGenotypes))
				} else {
					for r := 0; r < dna.NGenotypes; r++ {
						v := gpu.Ld(t, newP, idx+r)
						gpu.St(t, gTL, tl+r, gpu.Ld(t, gTL, tl+r)+v)
					}
				}
			} else {
				t.Exec(exec)
				// Algorithm 2: two p_matrix reads and a runtime log per
				// genotype.
				r := 0
				for a1 := dna.Base(0); a1 < dna.NBases; a1++ {
					for a2 := a1; a2 < dna.NBases; a2++ {
						p1 := gpu.Ld(t, pmat, bayes.PMatrixIndex(dna.Quality(qadj), coord, a1, dna.Base(base)))
						p2 := gpu.Ld(t, pmat, bayes.PMatrixIndex(dna.Quality(qadj), coord, a2, dna.Base(base)))
						v := t.Log10(0.5*p1 + 0.5*p2)
						t.Exec(2)
						if useShared {
							t.AddSharedF64(shBase+r, v)
						} else {
							gpu.St(t, gTL, tl+r, gpu.Ld(t, gTL, tl+r)+v)
						}
						r++
					}
				}
			}
		}

		// Copy the shared result to global memory (line 18).
		if useShared {
			gpu.StRun(t, gTL, tl, t.SharedF64Run(shBase, dna.NGenotypes))
		}
	})
}

// posteriorGPU launches the posterior kernel: per site, combine the ten
// genotype log-likelihoods likelihood_comp left in gTL with the site's row of
// the prior table buildPriors staged, and select the best and second-best
// genotypes by posteriorSite, the CPU path's own rule.
func (e *Engine) posteriorGPU(w *window, gTL *gpu.Buffer[float64]) {
	d := e.cfg.Device
	n := w.n

	gRow := gpu.Alloc[uint32](d, n)
	defer gRow.Free()
	gRow.CopyIn(w.priorRow)
	gPri := gpu.Alloc[float64](d, len(w.priorTable))
	defer gPri.Free()
	gPri.CopyIn(w.priorTable)
	gBest := gpu.Alloc[uint32](d, n)
	defer gBest.Free()
	gSecond := gpu.Alloc[uint32](d, n)
	defer gSecond.Free()
	gQual := gpu.Alloc[uint32](d, n)
	defer gQual.Free()

	d.MustLaunch(gpu.LaunchConfig{
		Name: "posterior", Grid: (n + likeliBlock - 1) / likeliBlock, Block: likeliBlock,
	}, func(t *gpu.Thread) {
		site := t.GlobalID()
		if site >= n {
			return
		}
		// Two 10-wide runs for ten interleaved load pairs: every lane of a
		// warp reorders alike, so each warp instruction's segments stay.
		row := int(gpu.Ld(t, gRow, site))
		tl := gpu.LdRun(t, gTL, site*dna.NGenotypes, dna.NGenotypes)
		pri := gpu.LdRun(t, gPri, row*dna.NGenotypes, dna.NGenotypes)
		t.Exec(2*dna.NGenotypes + 3)
		var b, s, q uint8
		posteriorSite(tl, pri, &b, &s, &q)
		gpu.St(t, gBest, site, uint32(b))
		gpu.St(t, gSecond, site, uint32(s))
		gpu.St(t, gQual, site, uint32(q))
	})

	// Read back in place (self-CopyOut), then narrowed to the window's
	// rank and quality arrays.
	best, second, qual := gBest.Host(), gSecond.Host(), gQual.Host()
	gBest.CopyOut(best)
	gSecond.CopyOut(second)
	gQual.CopyOut(qual)
	w.bestRank = grow(w.bestRank, n)
	w.secondRank = grow(w.secondRank, n)
	w.quality = grow(w.quality, n)
	for i := 0; i < n; i++ {
		w.bestRank[i] = uint8(best[i])
		w.secondRank[i] = uint8(second[i])
		w.quality[i] = uint8(qual[i])
	}
}
