package gsnp

import (
	"fmt"
	"io"
	"runtime"
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

	// arena holds the recycled per-window working set plus the per-worker
	// dep_count scratch: Config.Arena, or a private one created on first
	// use.
	arena *Arena

	// Window-persistent device state (GPU mode): the tagged dep_count
	// buffer and its window epoch.
	gDep     *gpu.Buffer[uint32]
	winEpoch uint32
}

// New creates an engine. It returns an error for ModeGPU without a device.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Mode == ModeGPU && cfg.Device == nil {
		return nil, fmt.Errorf("gsnp: ModeGPU requires a Device")
	}
	return &Engine{cfg: cfg}, nil
}

// Tables exposes the calibrated tables after a run. They live in the
// engine's Arena and are rebuilt in place by that arena's next run.
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
// them into device memory.
func (e *Engine) Prepare(st *pipeline.RunState) error {
	e.run = st
	e.sortStats, e.likeliStats, e.peakDeviceBytes = sortnet.Stats{}, gpu.Stats{}, 0
	ar := e.ar()
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
// restore: lengths reset at the next window and the tagged dep_count
// entries invalidate by epoch.
func (e *Engine) Abandon(start, end int) {}

// Finish implements pipeline.Kernel: release the device tables, on failed
// runs too.
func (e *Engine) Finish() {
	if e.cfg.Mode == ModeGPU {
		if ab := e.cfg.Device.AllocatedBytes(); ab > e.peakDeviceBytes {
			e.peakDeviceBytes = ab
		}
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
// small adjust table lives in constant memory; new_p_matrix (tens of MB)
// and p_matrix go to global memory.
func (e *Engine) loadTables() error {
	d := e.cfg.Device
	e.gNewP = gpu.Alloc[float64](d, len(e.tables.NewP))
	e.gNewP.CopyIn(e.tables.NewP)
	e.gP = gpu.Alloc[float64](d, len(e.tables.P))
	e.gP.CopyIn(e.tables.P)
	var err error
	e.cAdj, err = gpu.NewConst(d, e.tables.Adjust[:])
	if err != nil {
		return fmt.Errorf("gsnp: load_table: %w", err)
	}
	return nil
}

// unloadTables releases device table memory — whatever part of it a
// failed loadTables got to allocate, too.
func (e *Engine) unloadTables() {
	if e.gNewP != nil {
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
	if e.gDep != nil {
		e.gDep.Free()
		e.gDep = nil
	}
}

// window holds the per-window working set. Every slice is arena-owned and
// grow-only: reset trims lengths, the components re-slice with grow, and
// capacity persists across windows (component 7, recycle).
type window struct {
	start, end int
	n          int

	// Flattened observations (read_site output). The packed base_word
	// carries quality and the uniq flag (bit 18), so these two arrays are
	// the complete counting input.
	obsSite []uint32
	obsWord []uint32

	// Counting output: per-site base_word segments and summaries, plus
	// the size/cursor scratch of the scatter pass.
	words  sortnet.Batches
	counts []pipeline.SiteCounts
	sizes  []int32
	cursor []int32

	// Likelihood output: ten genotype log-likelihoods per site.
	typeLikely []float64

	// Posterior output. priors backs the GPU posterior kernel input; the
	// CPU path fuses the priors into the posterior pass instead.
	priors     []float64
	bestRank   []uint8
	secondRank []uint8
	quality    []uint8

	// Output-assembly buffers.
	rows        []snpio.Row
	alleleQuals [dna.NBases][]float64

	// GPU host staging (readback targets of the device kernels).
	hostBounds []uint32
	hostStats  []uint32
	hostBest   []uint32
	hostSecond []uint32
	hostQual   []uint32
}

// Window implements pipeline.Kernel: components 3-7 for one window whose
// reads have already been fetched (serially or by the prefetcher).
func (e *Engine) Window(rs []reads.AlignedRead, start, end int) error {
	rep := e.run.Report
	w := &e.ar().w
	w.reset(start, end)

	// Counting, host leg: flatten the observations into parallel arrays
	// (the per-aligned-base extraction the counting component performs).
	t0 := time.Now()
	w.flatten(rs)
	rep.Times.Count += time.Since(t0)

	// Components 3-7.
	var err error
	if e.cfg.Mode == ModeGPU {
		err = e.runWindowGPU(w)
	} else {
		err = e.runWindowCPU(w)
	}
	if err != nil {
		return err
	}

	// Sparsity histogram (Figure 4(b)): base_word length per site.
	for site := 0; site < w.n; site++ {
		rep.NonZeroHist[min(w.words.SizeOf(site), pipeline.SparsityHistSize-1)]++
	}
	return nil
}

// flatten appends the window's observations — what pipeline.ObsOf yields
// over each read's span of [start, end), packed as PackWord packs it — to
// obsSite/obsWord. It walks the clamped span and packs from the read's own
// fields instead of building an Obs per base: this loop runs once per aligned
// base, and an Obs result materialised on the stack made its speed depend on
// the stack alignment the callers' frames happened to leave
// (TestFlattenMatchesObsOf ties the two).
func (w *window) flatten(rs []reads.AlignedRead) {
	for i := range rs {
		r := &rs[i]
		flags := uint32(r.Strand)
		if r.Hits == 1 {
			flags |= wordUniqBit
		}
		lo, hi := max(w.start, r.Pos), min(w.end, r.Pos+len(r.Bases))
		for pos := lo; pos < hi; pos++ {
			off := pos - r.Pos
			cyc := r.Cycle(off)
			if cyc >= bayes.MaxReadLen {
				continue
			}
			w.obsSite = append(w.obsSite, uint32(pos-w.start))
			w.obsWord = append(w.obsWord, packWord(r.Bases[off], r.Quals[off], cyc, flags))
		}
	}
}

// buildPriors fills the window's per-site log prior vectors (GPU posterior
// kernel input; the CPU path computes priors inside posteriorRange and
// never materialises this array).
func (e *Engine) buildPriors(w *window) []float64 {
	cfg := &e.run.Config
	w.priors = grow(w.priors, w.n*dna.NGenotypes)
	pri := w.priors
	for site := 0; site < w.n; site++ {
		ref := cfg.Ref[w.start+site]
		if known := cfg.Known[w.start+site]; known != nil {
			lp := cfg.Priors.LogPriors(ref, known)
			copy(pri[site*dna.NGenotypes:], lp[:])
		} else {
			copy(pri[site*dna.NGenotypes:], e.novelPriors[ref][:])
		}
	}
	return pri
}

// output runs component 6 on the host path: assemble rows and write them.
func (e *Engine) output(w *window) error {
	return e.writeRows(e.buildRows(w))
}

// buildRows assembles the window's result rows (host work): rank-sum
// quality lists are rebuilt from the sorted base_word segments, whose
// canonical order matches the dense engine's iteration order.
func (e *Engine) buildRows(w *window) []snpio.Row {
	cfg := &e.run.Config
	rep := e.run.Report

	w.rows = grow(w.rows, w.n)
	rows := w.rows
	for site := 0; site < w.n; site++ {
		call := bayes.Call{
			Genotype: dna.GenotypeByRank(int(w.bestRank[site])),
			Second:   dna.GenotypeByRank(int(w.secondRank[site])),
			Quality:  int(w.quality[site]),
		}
		var aq *[dna.NBases][]float64
		if !call.Genotype.IsHomozygous() {
			for b := range w.alleleQuals {
				w.alleleQuals[b] = w.alleleQuals[b][:0]
			}
			for _, word := range w.words.Array(site) {
				o := UnpackWord(word)
				w.alleleQuals[o.Base] = append(w.alleleQuals[o.Base], float64(o.Qual))
			}
			aq = &w.alleleQuals
		}
		rows[site] = pipeline.BuildRow(&pipeline.RowInputs{
			Chr:         cfg.Chr,
			Pos:         w.start + site,
			Ref:         cfg.Ref[w.start+site],
			Call:        call,
			Counts:      &w.counts[site],
			AlleleQuals: aq,
			MeanDepth:   rep.MeanDepth,
			Known:       cfg.Known[w.start+site],
		})
		if rows[site].IsSNP() {
			rep.SNPs++
		}
	}
	return rows
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
