package gsnp

import (
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/sortnet"
)

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
	// sweep: the tagged dep_count buffer invalidates by epoch and the
	// per-window buffers return to the arena with lengths reset.
	t0 = time.Now()
	w.obsSite, w.obsWord = w.obsSite[:0], w.obsWord[:0]
	rep.Times.Recycle += time.Since(t0)

	if ab := d.AllocatedBytes(); ab > e.peakDeviceBytes {
		e.peakDeviceBytes = ab
	}
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
			t.Exec(3)
			off := gpu.Ld(t, bounds, site) + gpu.AtomicAddU32(t, cursor, site, 1)
			// The uniq flag rides above the 17-bit sort key; strip it so
			// the segment sorts in the canonical base_word order.
			gpu.St(t, words, int(off), word&^wordUniqBit)
			base := int(word >> 15 & 3)
			qual := dna.QMax - 1 - word>>9&(dna.QMax-1)
			uniq := word >> 18 & 1
			t.Exec(2)
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

	e.ensureDep(n)
	e.winEpoch++
	if e.winEpoch >= 1<<14 { // tag field exhausted: flush and restart
		clear(e.gDep.Host())
		e.winEpoch = 1
	}
	epochBase := e.winEpoch << 2 // room for the 2-bit base in the tag

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
	cfgLaunch := gpu.LaunchConfig{
		Name:  "likelihood_comp_" + variant.String(),
		Grid:  (n + block - 1) / block,
		Block: block,
	}
	if useShared {
		cfgLaunch.SharedF64 = block * dna.NGenotypes
	}

	gDep := e.gDep
	newP := e.gNewP
	pmat := e.gP
	adj := e.cAdj
	d.MustLaunch(cfgLaunch, func(t *gpu.Thread) {
		site := t.GlobalID()
		if site >= n {
			return
		}
		lo := int(gpu.Ld(t, bounds, site))
		hi := int(gpu.Ld(t, bounds, site+1))
		shBase := t.Lane * dna.NGenotypes

		// Initialise type_likely (line 4 of Algorithm 4).
		if useShared {
			for r := 0; r < dna.NGenotypes; r++ {
				t.SetSharedF64(shBase+r, 0)
			}
		} else {
			for r := 0; r < dna.NGenotypes; r++ {
				gpu.St(t, gTL, site*dna.NGenotypes+r, 0)
			}
		}

		depOff := site * 2 * readLen
		lastBase := -1
		var tag uint32
		for k := lo; k < hi; k++ {
			word := gpu.Ld(t, words, k)
			base := int(word >> 15 & 3)
			score := int(dna.QMax - 1 - word>>9&(dna.QMax-1))
			coord := int(word >> 1 & (bayes.MaxReadLen - 1))
			strand := int(word & 1)
			t.Exec(4) // field extraction

			if base != lastBase {
				// Re-initialising dep_count per base group (lines 8-10)
				// costs one tag change with the epoch encoding.
				tag = (epochBase | uint32(base)) << 16
				lastBase = base
				t.Exec(1)
			}
			slot := depOff + strand*readLen + coord
			entry := gpu.Ld(t, gDep, slot)
			cnt := uint32(0)
			if entry&0xFFFF0000 == tag {
				cnt = entry & 0xFFFF
			}
			cnt++
			gpu.St(t, gDep, slot, tag|cnt)
			t.Exec(2)

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
			t.Exec(2)

			if useNewTable {
				// Algorithm 3: one table read per genotype.
				idx := bayes.NewPMatrixIndex(dna.Quality(qadj), coord, dna.Base(base), 0)
				t.Exec(2)
				for r := 0; r < dna.NGenotypes; r++ {
					v := gpu.Ld(t, newP, idx+r)
					if useShared {
						t.AddSharedF64(shBase+r, v)
					} else {
						i := site*dna.NGenotypes + r
						gpu.St(t, gTL, i, gpu.Ld(t, gTL, i)+v)
					}
				}
			} else {
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
							i := site*dna.NGenotypes + r
							gpu.St(t, gTL, i, gpu.Ld(t, gTL, i)+v)
						}
						r++
					}
				}
			}
		}

		// Copy the shared result to global memory (line 18).
		if useShared {
			for r := 0; r < dna.NGenotypes; r++ {
				gpu.St(t, gTL, site*dna.NGenotypes+r, t.SharedF64(shBase+r))
			}
		}
	})

	w.typeLikely = grow(w.typeLikely, n*dna.NGenotypes)
	gTL.CopyOut(w.typeLikely)
}

// ensureDep sizes the device-resident tagged dep_count buffer.
func (e *Engine) ensureDep(n int) {
	need := n * 2 * e.run.Stride
	if e.gDep == nil || e.gDep.Len() < need {
		if e.gDep != nil {
			e.gDep.Free()
		}
		e.gDep = gpu.Alloc[uint32](e.cfg.Device, need)
		// First touch, on this goroutine. The buffer is the engine's
		// largest (800 B a site) and arrives as untouched pages; left to
		// the likelihood kernel, the lanes of a fanned-out launch fault
		// them in from two cores at once, which on the bench VM costs
		// 0.3 cpu-s and 0.1 s of wall for a 98,800-site window — more
		// than fanning that launch out saves. The price is the pages of
		// sites no read covers, which the kernel would have left alone:
		// 9 MB of 79 on chr1 at 88 % coverage.
		clear(e.gDep.Host())
		e.winEpoch = 0
	}
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
		if q > 99 {
			q = 99
		}
		t.Exec(3)
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
