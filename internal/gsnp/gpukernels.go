package gsnp

import (
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/sortnet"
)

// zeroTL is the zero type_likely row a likelihood thread starts from.
var zeroTL [dna.NGenotypes]float64

// likeliBlock is the thread-block size of the per-site kernels. With
// shared-memory type_likely each thread needs ten float64 slots: 256
// threads use 20 KB of the 48 KB per block.
const likeliBlock = 256

// runWindowGPU executes components 3-7 of one window on the simulated
// device.
func (e *Engine) runWindowGPU(w *window) error {
	rep := e.run.Report
	d := e.cfg.Device

	// Component 3: counting — build the per-site base_word segments with
	// count/scan/scatter kernels and accumulate the per-site summaries
	// with atomic kernels. (The host flattening leg was already charged
	// by runWindow.)
	sim := e.simSpan(func() { e.countGPU(w) })
	rep.Times.Count += sim

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
	before := d.Stats()
	sim = e.simSpan(func() { e.likelihoodCompGPU(w) })
	delta := d.Stats().Sub(before)
	delta.SimSeconds = 0
	e.likeliStats.Add(delta)
	rep.Times.LikeliComp += sim

	// Component 5: posterior.
	t0 := time.Now()
	priors := e.buildPriors(w)
	hostPrep := time.Since(t0)
	sim = e.simSpan(func() { e.posteriorGPU(w, priors) })
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
	// device buffers went back to the device free-list as each component
	// finished, and the per-window host arrays return to the arena with
	// lengths reset.
	t0 = time.Now()
	w.obsSite, w.obsWord = w.obsSite[:0], w.obsWord[:0]
	rep.Times.Recycle += time.Since(t0)
	return nil
}

// countGPU runs the counting component's kernels.
func (e *Engine) countGPU(w *window) {
	d := e.cfg.Device
	n := w.n
	m := len(w.obsWord)

	obsSite := gpu.Alloc[uint32](d, m)
	defer obsSite.Free()
	obsSite.CopyIn(w.obsSite)
	obsWord := gpu.Alloc[uint32](d, m)
	defer obsWord.Free()
	obsWord.CopyIn(w.obsWord)

	siteCount := gpu.Alloc[uint32](d, n)
	defer siteCount.Free()
	bounds := gpu.Alloc[uint32](d, n)
	defer bounds.Free()
	grid := (m + likeliBlock - 1) / likeliBlock
	if grid > 0 {
		d.MustLaunch(gpu.LaunchConfig{Name: "count_sites", Grid: grid, Block: likeliBlock}, func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= m {
				return
			}
			gpu.AtomicAddU32(t, siteCount, int(gpu.Ld(t, obsSite, i)), 1)
		})
	}
	gpu.ExclusiveScanU32(d, siteCount, bounds)

	words := gpu.Alloc[uint32](d, m)
	defer words.Free()
	cursor := gpu.Alloc[uint32](d, n)
	defer cursor.Free()
	stats := gpu.Alloc[uint32](d, 3*4*n) // count, qualsum, uniq per (site, base)
	defer stats.Free()
	if grid > 0 {
		d.MustLaunch(gpu.LaunchConfig{Name: "count_scatter", Grid: grid, Block: likeliBlock}, func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= m {
				return
			}
			site := int(gpu.Ld(t, obsSite, i))
			word := gpu.Ld(t, obsWord, i)
			t.Exec(5) // the slot's offset, then the word's fields
			off := gpu.Ld(t, bounds, site) + gpu.AtomicAddU32(t, cursor, site, 1)
			// The uniq flag rides above the 17-bit sort key; strip it so
			// the segment sorts in the canonical base_word order.
			gpu.St(t, words, int(off), word&^wordUniqBit)
			base := int(word >> 15 & 3)
			qual := dna.QMax - 1 - word>>9&(dna.QMax-1)
			uniq := word >> 18 & 1
			sb := site*4 + base
			gpu.AtomicAddU32(t, stats, sb, 1)
			gpu.AtomicAddU32(t, stats, 4*n+sb, qual)
			gpu.AtomicAddU32(t, stats, 8*n+sb, uniq)
		})
	}

	// Assemble the host-side structures the later components use, reading
	// back into the window's recycled staging buffers.
	w.hostBounds = grow(w.hostBounds, n)
	bounds.CopyOut(w.hostBounds)
	w.hostStats = grow(w.hostStats, 3*4*n)
	stats.CopyOut(w.hostStats)
	hostStats := w.hostStats

	w.words.Reset(n, m)
	words.CopyOut(w.words.Data)
	b := w.words.Bounds
	for i := 0; i < n; i++ {
		b[i] = int32(w.hostBounds[i])
	}
	b[n] = int32(m)
	w.counts = grow(w.counts, n)
	// The device accumulates in uint32; clamping on readback matches the
	// CPU path's saturating counters (pipeline.SiteCounts.Add).
	for site := 0; site < n; site++ {
		c := &w.counts[site]
		c.Depth = pipeline.SatDepth(uint32(b[site+1] - b[site]))
		for base := 0; base < 4; base++ {
			sb := site*4 + base
			c.Count[base] = pipeline.SatDepth(hostStats[sb])
			c.QualSum[base] = hostStats[4*n+sb]
			c.Uniq[base] = pipeline.SatDepth(hostStats[8*n+sb])
		}
	}
}

// likelihoodCompGPU launches the likelihood_comp kernel variant configured
// for the engine: one thread per site over the sorted base_word segments
// (Algorithm 4).
func (e *Engine) likelihoodCompGPU(w *window) {
	d := e.cfg.Device
	n := w.n
	readLen := e.run.Stride

	words := gpu.Alloc[uint32](d, len(w.words.Data))
	defer words.Free()
	words.CopyIn(w.words.Data)
	bounds := gpu.Alloc[uint32](d, n+1)
	defer bounds.Free()
	hb := bounds.Host()
	for i := range w.words.Bounds {
		hb[i] = uint32(w.words.Bounds[i])
	}

	gTL := gpu.Alloc[float64](d, n*dna.NGenotypes)
	defer gTL.Free()

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

	w.typeLikely = grow(w.typeLikely, n*dna.NGenotypes)
	gTL.CopyOut(w.typeLikely)
}

// posteriorGPU launches the posterior kernel: per site, combine the ten
// genotype log-likelihoods with the log priors and select the best and
// second-best genotypes. The comparison sequence matches posteriorSite and
// bayes.Posterior exactly.
func (e *Engine) posteriorGPU(w *window, priors []float64) {
	d := e.cfg.Device
	n := w.n

	gTL := gpu.Alloc[float64](d, len(w.typeLikely))
	defer gTL.Free()
	gTL.CopyIn(w.typeLikely)
	gPri := gpu.Alloc[float64](d, len(priors))
	defer gPri.Free()
	gPri.CopyIn(priors)
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
		tl := gpu.LdRun(t, gTL, site*dna.NGenotypes, dna.NGenotypes)
		pri := gpu.LdRun(t, gPri, site*dna.NGenotypes, dna.NGenotypes)
		t.Exec(2*dna.NGenotypes + 3)
		b, s := -1, -1
		var lb, ls float64
		for r, x := range tl {
			lp := x + pri[r]
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
		if q > 99 {
			q = 99
		}
		gpu.St(t, gBest, site, uint32(b))
		gpu.St(t, gSecond, site, uint32(s))
		gpu.St(t, gQual, site, uint32(q))
	})

	w.hostBest = grow(w.hostBest, n)
	w.hostSecond = grow(w.hostSecond, n)
	w.hostQual = grow(w.hostQual, n)
	gBest.CopyOut(w.hostBest)
	gSecond.CopyOut(w.hostSecond)
	gQual.CopyOut(w.hostQual)
	w.bestRank = grow(w.bestRank, n)
	w.secondRank = grow(w.secondRank, n)
	w.quality = grow(w.quality, n)
	for i := 0; i < n; i++ {
		w.bestRank[i] = uint8(w.hostBest[i])
		w.secondRank[i] = uint8(w.hostSecond[i])
		w.quality[i] = uint8(w.hostQual[i])
	}
}
