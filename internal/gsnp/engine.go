package gsnp

import (
	"cmp"
	"fmt"
	"io"
	"runtime"
	"slices"
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
	"gsnp/internal/snpio"
	"gsnp/internal/sortnet"
)

// Engine is the sparse window kernel of the GSNP pipeline — components 3-7
// over the base_word representation, on the host or the simulated device —
// behind the two-pass driver. Create one with New and hand it to
// pipeline.Run; an Engine may be reused for several runs, one at a time.
type Engine struct {
	cfg    Config
	tables *bayes.Tables

	// run is the driver's side of the current run, handed over in Prepare:
	// the shared settings, the dep_count stride, the report and the sink.
	run *pipeline.RunState

	// Device-side measurements of the current run (Report's own fields).
	sortStats       sortnet.Stats
	likeliStats     gpu.Stats
	peakDeviceBytes int64

	// Device-resident tables (GPU mode), uploaded by load_table.
	gNewP *gpu.Buffer[float64]
	gP    *gpu.Buffer[float64]
	cAdj  *gpu.ConstBuffer[uint8]

	// novelPriors caches the log genotype priors of sites absent from the
	// prior file, one vector per reference base.
	novelPriors [dna.NBases][dna.NGenotypes]float64

	// likeliPass and postPass are the CPU window's two sharded passes over
	// the arena's window, bound once so that a warm window forks without
	// building a closure.
	likeliPass, postPass func(shard, lo, hi int)
}

// New creates an engine. It returns an error for ModeGPU without a device.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Mode == ModeGPU && cfg.Device == nil {
		return nil, fmt.Errorf("gsnp: ModeGPU requires a Device")
	}
	e := &Engine{cfg: cfg}
	w := &cfg.Arena.w
	e.likeliPass = func(shard, lo, hi int) { e.likelihoodRange(w, lo, hi, shard) }
	e.postPass = func(_, lo, hi int) { e.posteriorRange(w, lo, hi) }
	return e, nil
}

// Tables exposes the calibrated tables after a run. They live in the
// engine's Arena and are rebuilt in place by that arena's next run. The GPU
// engine builds new_p_matrix in device memory and frees it with the run, so
// after a GPU run NewP is nil.
func (e *Engine) Tables() *bayes.Tables { return e.tables }

// Report returns the device-side measurements of the engine's latest run.
func (e *Engine) Report() Report {
	return Report{SortStats: e.sortStats, LikeliStats: e.likeliStats, PeakDeviceBytes: e.peakDeviceBytes}
}

// minShardSites is the smallest per-shard site count worth handing to a
// helper goroutine. Forking one shard (spawn, helper wakeup, join) costs
// on the order of ten microseconds of host time, while the likelihood +
// posterior passes cost well under a microsecond per site, so a shard needs
// a few thousand sites before the handoff is noise. 2048 keeps the fork-join
// overhead under ~1% of shard compute; see DESIGN.md "Adaptive compute
// sharding" for the measurement.
const minShardSites = 2048

// effectiveComputeWorkers adapts the requested compute-worker count to one
// window: capped at the host CPU count (extra workers on a CPU-bound pass
// add handoffs but no parallelism — the source of the cw=4 regression on
// small hosts) and at one shard per minShardSites sites (tiny windows
// serialize rather than paying dispatch latency per sliver).
func effectiveComputeWorkers(k, n int) int {
	if mp := runtime.GOMAXPROCS(0); k > mp {
		k = mp
	}
	if floor := n / minShardSites; k > floor {
		k = floor
	}
	if k < 1 {
		k = 1
	}
	return k
}

// shardCount is the number of contiguous site ranges the likelihood and
// posterior passes of an n-site window are split into. Each shard writes
// only its own disjoint index range of the output arrays and likelihood
// shards use per-worker dep_count scratch, so results are byte-identical to
// the serial order at any count. The width adapts to the window: requesting
// more workers than the host has CPUs, or more shards than the window has
// sites to amortise the fork-join, silently serializes (sharding never
// changes output bytes, only wall time).
func (e *Engine) shardCount(n int) int {
	k := e.cfg.ComputeWorkers
	if k > 1 && e.cfg.forceShardWorkers > 0 {
		k = e.cfg.forceShardWorkers
	} else {
		k = effectiveComputeWorkers(k, n)
	}
	return max(1, min(k, n))
}

// simSpan measures the simulated device time consumed by f.
func (e *Engine) simSpan(f func()) time.Duration {
	start := e.cfg.Device.SimTime()
	f()
	return time.Duration((e.cfg.Device.SimTime() - start) * float64(time.Second))
}

// Prepare implements pipeline.Kernel: build the log table, the adjust table
// and the new score table on the CPU (Section IV-G), in the arena, and load
// them into device memory. On the GPU engine the new score table is built
// in the storage of its device buffer, so its upload copies nothing.
func (e *Engine) Prepare(st *pipeline.RunState) error {
	e.run = st
	e.sortStats, e.likeliStats, e.peakDeviceBytes = sortnet.Stats{}, gpu.Stats{}, 0
	ar := e.cfg.Arena
	if e.cfg.Mode == ModeGPU {
		e.cfg.Device.ResetPeak()
		e.gNewP = gpu.Alloc[float64](e.cfg.Device, bayes.NewPMatrixSize)
		ar.tables.NewP = e.gNewP.Host()
	}
	ar.tables.Build(st.Cal.BuildInto(ar.tables.P))
	e.tables = &ar.tables
	for b := dna.Base(0); b < dna.NBases; b++ {
		e.novelPriors[b] = st.Priors.LogPriors(b, nil)
	}
	if e.cfg.Mode == ModeGPU {
		return e.loadTables()
	}
	return nil
}

// Abandon implements pipeline.Kernel. The sparse window leaves nothing to
// restore: lengths reset at the next window, the CPU path's tagged dep_count
// entries invalidate by epoch, and the GPU path's live in local memory.
func (e *Engine) Abandon(start, end int) {}

// Finish implements pipeline.Kernel: take the run's device high-water mark
// and release the device tables, on failed runs too.
func (e *Engine) Finish() {
	if e.cfg.Mode == ModeGPU {
		e.peakDeviceBytes = e.cfg.Device.PeakBytes()
		e.unloadTables()
	}
}

// BlockWriter supplies the driver's container codec: on the GPU engine the
// RLE-DICT columns are compressed by device kernels.
func (e *Engine) BlockWriter(w io.Writer) *snpio.BlockWriter {
	if e.cfg.Mode == ModeGPU {
		return snpio.NewBlockWriterGPU(w, e.cfg.Device)
	}
	return snpio.NewBlockWriter(w)
}

// loadTables uploads the precomputed tables (load_table in Figure 2). The
// small adjust table lives in constant memory; new_p_matrix goes to global
// memory — into the buffer Prepare built it in, if it did — and so does
// p_matrix for the two likelihood variants that read it (Algorithm 2).
func (e *Engine) loadTables() error {
	d := e.cfg.Device
	if e.gNewP == nil {
		e.gNewP = gpu.Alloc[float64](d, len(e.tables.NewP))
	}
	e.gNewP.CopyIn(e.tables.NewP)
	if v := e.cfg.Variant; v == VariantBaseline || v == VariantShared {
		e.gP = gpu.Alloc[float64](d, len(e.tables.P))
		e.gP.CopyIn(e.tables.P)
	}
	var err error
	e.cAdj, err = gpu.NewConst(d, e.tables.Adjust[:])
	if err != nil {
		return fmt.Errorf("gsnp: load_table: %w", err)
	}
	return nil
}

// unloadTables releases device table memory — whatever part of it a
// failed loadTables got to allocate, too. Prepare built the arena's
// new_p_matrix in gNewP's storage, which the device free-list hands to the
// next allocation once freed, so the arena drops its view of it.
func (e *Engine) unloadTables() {
	if e.gNewP != nil {
		e.cfg.Arena.tables.NewP = nil
		e.gNewP.Free()
		e.gNewP = nil
	}
	if e.gP != nil {
		e.gP.Free()
		e.gP = nil
	}
	if e.cAdj != nil {
		e.cAdj.Free()
		e.cAdj = nil
	}
}

// window holds the per-window working set. Every slice is arena-owned and
// grow-only: reset trims lengths, the components re-slice with grow, and
// capacity persists across windows (component 7, recycle).
type window struct {
	start, end int
	n          int

	// Flattened observations (read_site output): one run per read with a
	// kept observation, sorted by first kept site, and the runs' packed
	// base_words back to back (obsWord on the CPU engine; the GPU engine
	// packs them into device memory). The base_word carries quality and
	// the uniq flag (bit 18), so runs and words are the complete counting
	// input.
	// maxExtent is the widest run's end-first, at most bayes.MaxReadLen: a
	// site is covered only by runs whose first site lies less than
	// maxExtent sites before it.
	runs      []obsRun
	obsWord   []uint32
	maxExtent int

	// Counting output: per-site base_word segments and summaries, plus
	// the depth/cursor scratch of the host's scatter pass. The GPU path
	// keeps its segments on the device and leaves words empty: while it
	// builds its rows, dWords and dBounds view the device storage of the
	// sorted words and of their bounds (segment).
	words           sortnet.Batches
	dWords, dBounds []uint32
	counts          []pipeline.SiteCounts
	sizes           []int32
	cursor          []int32

	// Likelihood output of the CPU path: ten genotype log-likelihoods per
	// site. The GPU path keeps its type_likely on the device.
	typeLikely []float64

	// Posterior input of the GPU path (buildPriors): the prior table and
	// each site's row of it. The CPU path fuses the priors into the
	// posterior pass instead.
	priorRow   []uint32
	priorTable []float64

	// Posterior output.
	bestRank   []uint8
	secondRank []uint8
	quality    []uint8

	// Output-assembly buffers.
	rows        []snpio.Row
	alleleQuals [dna.NBases][]float64
}

// recycle is component 7 on both engines: the sparse window returns its
// storage to the arena by resetting the read-run table and the CPU path's
// observation words, and touches no per-site array — the next window's
// components overwrite every entry they read.
func (w *window) recycle() {
	w.runs, w.obsWord = w.runs[:0], w.obsWord[:0]
}

// Window implements pipeline.Kernel: components 3-7 for one window whose
// reads the driver's read_site has already fetched.
func (e *Engine) Window(rs []reads.AlignedRead, start, end int) error {
	rep := e.run.Report
	w := &e.cfg.Arena.w
	w.reset(start, end)

	// Components 3-7. Counting starts with a host leg: flatten the
	// observations into parallel arrays (the per-aligned-base extraction
	// the counting component performs) — on the GPU engine straight into
	// the device buffer counting reads them from.
	var err error
	if e.cfg.Mode == ModeGPU {
		err = e.runWindowGPU(w, rs)
	} else {
		t0 := time.Now()
		w.flatten(rs)
		rep.Times.Count += time.Since(t0)
		err = e.runWindowCPU(w)
	}
	if err != nil {
		return err
	}

	// Sparsity histogram (Figure 4(b)): base_word length per site, the
	// site's depth (it saturates far above the histogram's last bin).
	for site := 0; site < w.n; site++ {
		rep.NonZeroHist[min(int(w.counts[site].Depth), pipeline.SparsityHistSize-1)]++
	}
	return nil
}

// segment returns site's sorted base_word segment: from the CPU path's
// sort batches, or on the GPU path from the view of device storage the
// window holds while it builds its rows.
func (w *window) segment(site int) []uint32 {
	if w.dBounds == nil {
		return w.words.Array(site)
	}
	return w.dWords[w.dBounds[site]:w.dBounds[site+1]]
}

// obsRun is one read's kept observations in a window, window-relative:
// [first, end) the sites it has a kept observation at, and off the index of
// first's word in obsWord. The kept sites are one range, of at most
// bayes.MaxReadLen sites, because a read loses only its cycles at or past
// bayes.MaxReadLen, a suffix on the + strand and a prefix on the − strand.
type obsRun struct {
	first, end, off uint32
}

// flatten records the window's observations in the arena's obsWord, the
// CPU engine's counting input (flattenInto).
func (w *window) flatten(rs []reads.AlignedRead) {
	w.obsWord = grow(w.obsWord, w.obsCount(rs))
	w.flattenInto(rs, w.obsWord)
}

// kept returns the sites [first, end) at which read r has a kept
// observation in the window: its span of [start, end) less its cycles at or
// past bayes.MaxReadLen, a suffix on the + strand and a prefix on the −
// strand. The range is empty when first >= end.
func (w *window) kept(r *reads.AlignedRead) (first, end int) {
	first, end = max(w.start, r.Pos), min(w.end, r.Pos+len(r.Bases))
	if r.Strand == 1 {
		first = max(first, r.Pos+len(r.Bases)-bayes.MaxReadLen)
	} else {
		end = min(end, r.Pos+bayes.MaxReadLen)
	}
	return first, end
}

// obsCount returns the number of observations flattenInto records for rs.
func (w *window) obsCount(rs []reads.AlignedRead) int {
	m := 0
	for i := range rs {
		first, end := w.kept(&rs[i])
		m += max(0, end-first)
	}
	return m
}

// flattenInto records the window's observations — what pipeline.ObsOf
// yields over each read's span of [start, end), packed as PackWord packs it
// — as runs over obsWord, which holds exactly obsCount(rs) words. It walks
// the kept range and packs from the read's own fields instead of building
// an Obs per base: this loop runs once per aligned base, and an Obs result
// materialised on the stack made its speed depend on the stack alignment
// the callers' frames happened to leave (TestFlattenMatchesObsOf ties the
// two). The run table is sized first, from the read count, so a cold
// window allocates it once instead of growing it by doubling. Both counting
// engines walk the runs in order of first site. pipeline.Run's reads arrive
// in position order, which leaves the table in that order unless a −
// strand read is longer than bayes.MaxReadLen (its first kept site lies
// past later reads' starts); a table out of order is stable-sorted.
func (w *window) flattenInto(rs []reads.AlignedRead, obsWord []uint32) {
	w.runs = slices.Grow(w.runs, len(rs))
	k := 0
	sorted := true
	for i := range rs {
		r := &rs[i]
		first, end := w.kept(r)
		if first >= end {
			continue
		}
		flags := uint32(r.Strand)
		if r.Hits == 1 {
			flags |= wordUniqBit
		}
		run := obsRun{uint32(first - w.start), uint32(end - w.start), uint32(k)}
		if n := len(w.runs); n > 0 && w.runs[n-1].first > run.first {
			sorted = false
		}
		w.runs = append(w.runs, run)
		w.maxExtent = max(w.maxExtent, end-first)
		dst := obsWord[k : k+end-first]
		for j := range dst {
			off := first - r.Pos + j
			dst[j] = packWord(r.Bases[off], r.Quals[off], r.Cycle(off), flags)
		}
		k += len(dst)
	}
	if !sorted {
		slices.SortStableFunc(w.runs, func(a, b obsRun) int { return cmp.Compare(a.first, b.first) })
	}
}

// buildPriors fills the GPU posterior's prior table and each site's row of
// it: rows 0-3 are the novel priors of each reference base, then one row per
// known site of the window, in site order. A site costs the host its row
// index, not its ten priors; the CPU path computes priors inside
// posteriorRange and builds neither.
func (e *Engine) buildPriors(w *window) {
	cfg := &e.run.Config
	w.priorRow = grow(w.priorRow, w.n)
	w.priorTable = w.priorTable[:0]
	for _, row := range e.novelPriors {
		w.priorTable = append(w.priorTable, row[:]...)
	}
	for site, ref := range cfg.Ref[w.start:w.end] {
		w.priorRow[site] = uint32(ref)
	}
	for _, k := range e.run.KnownIn(w.start, w.end) {
		lp := cfg.Priors.LogPriors(cfg.Ref[k.Pos], k.SNP)
		w.priorRow[k.Pos-w.start] = uint32(len(w.priorTable) / dna.NGenotypes)
		w.priorTable = append(w.priorTable, lp[:]...)
	}
}

// output runs component 6 on the host path: assemble rows and write them.
func (e *Engine) output(w *window) error {
	return e.writeRows(e.buildRows(w))
}

// buildRows assembles the window's result rows (host work) in place:
// rank-sum quality lists are rebuilt from the sorted base_word segments,
// whose canonical order matches the dense engine's iteration order, and
// the window's known sites are walked beside its sites.
func (e *Engine) buildRows(w *window) []snpio.Row {
	cfg := &e.run.Config
	rep := e.run.Report

	w.rows = grow(w.rows, w.n)
	known := e.run.KnownIn(w.start, w.end)
	in := pipeline.RowInputs{Chr: cfg.Chr, MeanDepth: rep.MeanDepth}
	for site := range w.rows {
		in.Pos = w.start + site
		in.Ref = cfg.Ref[in.Pos]
		in.Call = bayes.Call{
			Genotype: dna.GenotypeByRank(int(w.bestRank[site])),
			Second:   dna.GenotypeByRank(int(w.secondRank[site])),
			Quality:  int(w.quality[site]),
		}
		in.Counts = &w.counts[site]
		in.AlleleQuals = nil
		if !in.Call.Genotype.IsHomozygous() {
			for b := range w.alleleQuals {
				w.alleleQuals[b] = w.alleleQuals[b][:0]
			}
			for _, word := range w.segment(site) {
				o := UnpackWord(word)
				w.alleleQuals[o.Base] = append(w.alleleQuals[o.Base], float64(o.Qual))
			}
			in.AlleleQuals = &w.alleleQuals
		}
		in.Known = nil
		if len(known) > 0 && known[0].Pos == in.Pos {
			in.Known, known = known[0].SNP, known[1:]
		}
		if pipeline.BuildRow(&w.rows[site], &in) {
			rep.SNPs++
		}
	}
	return w.rows
}

// writeRows pushes assembled rows to the run's sink; with compressed
// output on the GPU engine this is where the device compression kernels
// run.
func (e *Engine) writeRows(rows []snpio.Row) error {
	if err := e.run.Out.WriteBlock(rows); err != nil {
		return fmt.Errorf("gsnp: output: %w", err)
	}
	return nil
}
