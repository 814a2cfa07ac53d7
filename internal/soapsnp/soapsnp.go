// Package soapsnp is a from-scratch implementation of the CPU-based
// SOAPsnp baseline the paper compares against: components 3-7 of Figure 1
// (counting, likelihood, posterior, output, recycle) over the dense per-site
// aligned-base matrix base_occ, with the likelihood computation of
// Algorithms 1-2, window by window with a default window of 4,000 sites.
// The two passes over the input and the window loop are the shared driver's
// (pipeline.Run); its report carries the Table I breakdown and the base_occ
// sparsity histogram of Figure 4(b).
package soapsnp

import (
	"encoding/binary"
	"fmt"
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/par"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
	"gsnp/internal/snpio"
)

// Config holds what only the dense kernel reads. Everything a run shares
// with the other engines is pipeline.Config, handed to pipeline.Run next to
// the Engine.
type Config struct {
	// Threads parallelises the likelihood calculation across the sites
	// of a window. The shipped SOAPsnp is single-threaded (the paper's
	// baseline); the paper's authors report that their 16-thread port
	// gained only 3-4x because the dense scan is bound by memory
	// bandwidth (Section VI-A). Zero or one selects the single-threaded
	// baseline.
	Threads int
}

// DefaultWindow is SOAPsnp's window size from the paper's setup (Section
// VI-A); the caller of pipeline.Run sets it as pipeline.Config.Window.
const DefaultWindow = 4000

// Engine is the dense window kernel — components 3-7 over base_occ —
// behind the two-pass driver (pipeline.Run). One Engine may be reused for
// several runs, one at a time, also after a run that failed; it owns the
// large window buffers and the score tables, so a second run given the same
// pipeline.Config.Scratch allocates next to nothing.
type Engine struct {
	cfg    Config
	tables bayes.Tables

	// run is the driver's side of the current run, handed over in Prepare:
	// the shared settings, the dep_count stride, the report and the sink.
	run *pipeline.RunState

	// Window state, sized in Prepare; live is the size of a window counted
	// and not yet recycled, which a run that failed leaves for Prepare, and
	// touched the length of the base_occ prefix some window has written
	// (touchWindow), which only a new allocation resets.
	baseOcc []uint8
	counts  []pipeline.SiteCounts
	quals   [][dna.NBases][]float64
	likely  [][bayes.TypeLikelySize]float64
	calls   []bayes.Call
	rows    []snpio.Row
	live    int
	touched int

	// Likelihood scratch, one per thread (one for the single-threaded
	// baseline), the fork-join the threads run through and their pass,
	// bound once so that a warm window forks without building a closure.
	likeli     []LikeliScratch
	join       par.Group
	likeliPass func(wkr, lo, hi int)
}

// New creates an engine.
func New(cfg Config) *Engine {
	e := &Engine{cfg: cfg}
	e.likeliPass = func(wkr, lo, hi int) {
		s := &e.likeli[wkr]
		clear(s.hist)
		e.likelihoodRange(lo, hi, s, s.hist)
	}
	return e
}

// Prepare implements pipeline.Kernel: derive p_matrix and the log/adjust
// tables from the calibration — the dense likelihood takes its logarithms
// at run time, so no new_p_matrix — and size the window buffers.
func (e *Engine) Prepare(st *pipeline.RunState) error {
	e.run = st
	if e.live != 0 {
		e.Abandon(0, e.live)
	}
	if e.tables.Log == nil {
		e.tables.Log = bayes.BuildLogTable()
		e.tables.Adjust = bayes.BuildAdjustTable(e.tables.Log)
	}
	e.tables.P = st.Cal.BuildInto(e.tables.P)
	e.allocWindow(st.Window, st.Stride)
	return nil
}

// allocWindow sizes the per-window buffers for n sites and the likelihood
// scratch of every thread at dep_count stride stride.
func (e *Engine) allocWindow(n, stride int) {
	if len(e.baseOcc) != n*bayes.BaseOccSize {
		e.baseOcc = make([]uint8, n*bayes.BaseOccSize)
		e.touched = 0
		e.counts = make([]pipeline.SiteCounts, n)
		e.quals = make([][dna.NBases][]float64, n)
		e.likely = make([][bayes.TypeLikelySize]float64, n)
		e.calls = make([]bayes.Call, n)
		e.rows = make([]snpio.Row, n)
	}
	if threads := max(1, e.cfg.Threads); len(e.likeli) != threads || len(e.likeli[0].depCount) != 2*stride {
		e.likeli = make([]LikeliScratch, threads)
		for i := range e.likeli {
			e.likeli[i] = NewLikeliScratch(stride)
		}
	}
}

// Window implements pipeline.Kernel: components 3-7 for one window
// [start, end) whose reads were already fetched.
func (e *Engine) Window(rs []reads.AlignedRead, start, end int) error {
	cfg := &e.run.Config
	rep := e.run.Report
	n := end - start

	// Component 7, ahead of the window: initialising base_occ is recycle's
	// job, and the first window to use a page of it pays for mapping it.
	t0 := time.Now()
	e.touchWindow(n)
	t1 := time.Now()
	rep.Times.Recycle += t1.Sub(t0)

	// Component 3: counting — scatter every aligned base into the dense
	// base_occ matrix and the per-site summaries.
	t0 = t1
	e.live = n
	e.count(rs, start, end)
	rep.Times.Count += time.Since(t0)

	// Component 4: likelihood — Algorithm 1 over the dense matrix,
	// optionally parallelised across sites (the paper's multi-threaded
	// SOAPsnp port, which saturates on memory bandwidth).
	t0 = time.Now()
	if e.cfg.Threads > 1 {
		e.likelihoodParallel(n, rep)
	} else {
		e.likelihoodRange(0, n, &e.likeli[0], rep.NonZeroHist)
	}
	rep.Times.LikeliComp += time.Since(t0)

	// Component 5: posterior, walking the window's known sites beside its
	// sites.
	t0 = time.Now()
	known := e.run.KnownIn(start, end)
	for site := 0; site < n; site++ {
		var snp *bayes.KnownSNP
		if len(known) > 0 && known[0].Pos == start+site {
			snp, known = known[0].SNP, known[1:]
		}
		lp := cfg.Priors.LogPriors(cfg.Ref[start+site], snp)
		e.calls[site] = bayes.Posterior(&e.likely[site], &lp)
	}
	rep.Times.Post += time.Since(t0)

	// Component 6: output, each row built in place.
	t0 = time.Now()
	rows := e.rows[:n]
	known = e.run.KnownIn(start, end)
	in := pipeline.RowInputs{Chr: cfg.Chr, MeanDepth: rep.MeanDepth}
	for site := range rows {
		in.Pos = start + site
		in.Ref = cfg.Ref[in.Pos]
		in.Call = e.calls[site]
		in.Counts = &e.counts[site]
		in.AlleleQuals = &e.quals[site]
		in.Known = nil
		if len(known) > 0 && known[0].Pos == in.Pos {
			in.Known, known = known[0].SNP, known[1:]
		}
		if pipeline.BuildRow(&rows[site], &in) {
			rep.SNPs++
		}
	}
	if err := e.run.Out.WriteBlock(rows); err != nil {
		return fmt.Errorf("soapsnp: output: %w", err)
	}
	rep.Times.Output += time.Since(t0)

	// Component 7: recycle — reinitialise the dense matrices for the next
	// window; with the dense representation this touches every byte, the
	// second-most expensive component of Table I.
	t0 = time.Now()
	e.resetWindow(n)
	rep.Times.Recycle += time.Since(t0)
	return nil
}

// count is the counting component over the window [start, end): what
// pipeline.ObsOf yields over each read's span of the window goes into
// base_occ (saturating at 255), the site's counts and its per-base quality
// list. It walks the clamped span and indexes from the read's own fields
// instead of taking an Obs per base from ObsOf: this loop runs once per
// aligned base, and that 5-byte result materialised on the stack made its
// speed depend on the stack alignment the callers' frames happened to leave
// (TestCountMatchesObsOf ties the two).
func (e *Engine) count(rs []reads.AlignedRead, start, end int) {
	for i := range rs {
		r := &rs[i]
		uniq := r.Hits == 1
		lo, hi := max(start, r.Pos), min(end, r.Pos+len(r.Bases))
		for pos := lo; pos < hi; pos++ {
			off := pos - r.Pos
			cyc := r.Cycle(off)
			if cyc >= bayes.MaxReadLen {
				continue
			}
			base, qual := r.Bases[off], r.Quals[off]
			site := pos - start
			idx := site*bayes.BaseOccSize + bayes.BaseOccIndex(base, qual, cyc, int(r.Strand))
			if e.baseOcc[idx] < 255 {
				e.baseOcc[idx]++
			}
			e.counts[site].Add(pipeline.Obs{Base: base, Qual: qual, Coord: uint8(cyc), Strand: r.Strand, Uniq: uniq})
			e.quals[site][base] = append(e.quals[site][base], float64(qual))
		}
	}
}

// pageBytes is the smallest page size of the platforms Go runs on; on a
// larger page touchWindow writes a page more than once, which costs a store,
// not a fault.
const pageBytes = 4 << 10

// touchWindow writes a zero byte on each page of the first n sites' base_occ
// that no earlier window has written. Fresh from the heap those pages are
// unmapped: were the likelihood's sweep the first to reach one, the read
// would map the shared zero page, and recycle's clear would then take a
// second, copy-on-write fault to give the page its own frame. Written first,
// each page faults once. The high-water mark keeps the cost where it
// belongs: a chromosome shorter than the window touches only its own sites,
// and a kept engine touches nothing on a chromosome no longer than one it
// has run.
func (e *Engine) touchWindow(n int) {
	end := n * bayes.BaseOccSize
	for i := e.touched; i < end; i += pageBytes {
		e.baseOcc[i] = 0
	}
	e.touched = max(e.touched, end)
}

// Abandon implements pipeline.Kernel: recycle after a quarantined window
// too, so that a window abandoned mid-counting cannot leak observations
// into its successor — nor one abandoned mid-likelihood a half-counted
// dep_count, which DenseLikelihood expects clean.
func (e *Engine) Abandon(start, end int) {
	e.resetWindow(end - start)
	for i := range e.likeli {
		clear(e.likeli[i].depCount)
	}
}

// resetWindow clears the dense per-site state for the first n sites — the
// recycle component.
func (e *Engine) resetWindow(n int) {
	clear(e.baseOcc[:n*bayes.BaseOccSize])
	for site := 0; site < n; site++ {
		e.counts[site].Reset()
		for b := range e.quals[site] {
			e.quals[site][b] = e.quals[site][b][:0]
		}
	}
	e.live = 0
}

// Finish implements pipeline.Kernel: let go of the run, so that a kept
// engine does not pin the last chromosome's reference and priors.
func (e *Engine) Finish() { e.run = nil }

// Each (base, score) row of base_occ spans rowBytes consecutive bytes
// (coord x strand, strand in the lowest bit), each base's block baseBytes;
// the sweep tests groupBytes at a time.
const (
	rowBytes   = bayes.NStrands * bayes.MaxReadLen
	baseBytes  = bayes.NQ * rowBytes
	wordBytes  = 8
	groupBytes = 8 * wordBytes
)

// LikeliScratch is the working storage of one DenseLikelihood caller: a
// thread of the engine, a test, a benchmark. Nothing in it outlives a call,
// so one scratch serves any number of sites in turn.
type LikeliScratch struct {
	// depCount is dep_count, 2*readLen entries (strand-major); all zero
	// between calls.
	depCount []uint16
	// nz receives the offsets of a base block's non-zero words; it is sized
	// for a block without a single zero word, so the sweep never grows it.
	nz []int32
	// hist is the thread's share of Report.NonZeroHist (likelihoodParallel).
	hist []int64
}

// NewLikeliScratch allocates the scratch for reads of up to readLen cycles
// (the driver's dep_count stride).
func NewLikeliScratch(readLen int) LikeliScratch {
	return LikeliScratch{
		depCount: make([]uint16, 2*readLen),
		nz:       make([]int32, baseBytes/wordBytes),
		hist:     make([]int64, pipeline.SparsityHistSize),
	}
}

// DenseLikelihood is Algorithm 1: the likelihood calculation for one site
// over the dense base_occ matrix, all 131,072 elements of it. It is two
// passes per base block. The sweep reads the block forward in memory and
// notes where it is not zero, so that — like the original SOAPsnp — the
// cost of a site is the sequential memory bandwidth of reading the matrix
// once (Formula 1 / Figure 4a); the canonical-order pass then visits only
// those places, in Algorithm 1's base / score (descending) / coordinate /
// strand order, clamped to the readLen cycles s was made for. It returns
// the number of non-zero elements encountered (the sparsity datum of
// Figure 4(b)).
func DenseLikelihood(baseOcc []uint8, t *bayes.Tables, s *LikeliScratch, tl *[bayes.TypeLikelySize]float64) (nonZero int) {
	for i := range tl {
		tl[i] = 0
	}
	depCount := s.depCount
	readLen := len(depCount) / 2
	for base := dna.Base(0); base < dna.NBases; base++ {
		blk := baseOcc[int(base)*baseBytes : (int(base)+1)*baseBytes]
		nz := s.nz[:sweep(blk, s.nz)]
		// nz is ascending in memory = ascending score; walk score rows in
		// descending order, ascending within each row.
		hi := len(nz)
		for hi > 0 {
			rowStart := int(nz[hi-1]) &^ (rowBytes - 1)
			lo := hi - 1
			for lo > 0 && int(nz[lo-1]) >= rowStart {
				lo--
			}
			score := rowStart / rowBytes
			for _, off32 := range nz[lo:hi] {
				off := int(off32)
				end := min(off+wordBytes, rowStart+2*readLen)
				for i := off; i < end; i++ {
					occ := blk[i]
					if occ == 0 {
						continue
					}
					nonZero++
					coord := (i - rowStart) >> 1
					strand := i & 1
					for k := uint8(0); k < occ; k++ {
						dc := depCount[strand*readLen+coord] + 1
						depCount[strand*readLen+coord] = dc
						qadj := t.Adjust.Adjust(dna.Quality(score), dc)
						for a1 := dna.Base(0); a1 < dna.NBases; a1++ {
							for a2 := a1; a2 < dna.NBases; a2++ {
								tl[a1<<2|a2] += bayes.LikelyUpdate(t.P, qadj, coord, base, a1, a2)
							}
						}
					}
				}
			}
			hi = lo
		}
		if len(nz) > 0 {
			clear(depCount)
		}
	}
	return nonZero
}

// sweep writes the offsets of the non-zero 8-byte words of blk, ascending,
// to nz and returns how many there are. len(blk) is a multiple of
// groupBytes and nz holds len(blk)/wordBytes entries. A group's eight words
// are OR-ed into one test, so an empty group — nearly all of them — costs
// eight loads and one branch.
//
// The function is a leaf of its own so that this loop's state (the offset,
// the count, the running OR) is allocated to registers on its own terms.
// Inlined into DenseLikelihood, with that function's two dozen live values
// around it, the compiler spilled the induction variable to the stack, and
// the store-to-load round trip per word — not memory — set the speed of the
// dense engine, at a rate that moved with the frame of whatever called it.
// For the same reason a non-empty group's words are loaded a second time
// (from L1) rather than kept live across the test.
//
//go:noinline
func sweep(blk []uint8, nz []int32) int {
	n := 0
	for off := 0; off+groupBytes <= len(blk); off += groupBytes {
		g := blk[off : off+groupBytes : off+groupBytes]
		if binary.LittleEndian.Uint64(g[0*wordBytes:])|
			binary.LittleEndian.Uint64(g[1*wordBytes:])|
			binary.LittleEndian.Uint64(g[2*wordBytes:])|
			binary.LittleEndian.Uint64(g[3*wordBytes:])|
			binary.LittleEndian.Uint64(g[4*wordBytes:])|
			binary.LittleEndian.Uint64(g[5*wordBytes:])|
			binary.LittleEndian.Uint64(g[6*wordBytes:])|
			binary.LittleEndian.Uint64(g[7*wordBytes:]) == 0 {
			continue
		}
		for j := 0; j < groupBytes; j += wordBytes {
			if binary.LittleEndian.Uint64(g[j:]) != 0 {
				nz[n] = int32(off + j)
				n++
			}
		}
	}
	return n
}

// likelihoodRange runs DenseLikelihood over sites [lo, hi) of the window on
// one thread's scratch and counts each site's non-zero elements into hist.
func (e *Engine) likelihoodRange(lo, hi int, s *LikeliScratch, hist []int64) {
	for site := lo; site < hi; site++ {
		nz := DenseLikelihood(e.baseOcc[site*bayes.BaseOccSize:(site+1)*bayes.BaseOccSize],
			&e.tables, s, &e.likely[site])
		hist[min(nz, pipeline.SparsityHistSize-1)]++
	}
}

// likelihoodParallel fans the window's dense likelihood scans across
// Config.Threads workers. Each worker owns a scratch; histogram updates
// merge at the end. Since every worker streams a disjoint slice of the same
// base_occ buffer, the aggregate rate is capped by the machine's memory
// bandwidth — the reason the paper's 16-thread port only reached 3-4x.
func (e *Engine) likelihoodParallel(n int, rep *pipeline.Report) {
	// A worker's panic is re-raised here once every worker has returned, so
	// no shard is still writing the window buffers when the driver's
	// containment unwinds past them.
	workers := e.likeli[:min(len(e.likeli), n)]
	e.join.Range(n, len(workers), e.likeliPass)
	for i := range workers {
		for k, c := range workers[i].hist {
			rep.NonZeroHist[k] += c
		}
	}
}
