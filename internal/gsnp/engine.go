package gsnp

import (
	"context"
	"fmt"
	"io"
	"os"
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

// Engine executes the GSNP pipeline. Create one with New and invoke Run;
// an Engine may be reused for several runs with the same configuration.
type Engine struct {
	cfg    Config
	tables *bayes.Tables

	// Device-resident tables (GPU mode), uploaded by load_table.
	gNewP *gpu.Buffer[float64]
	gP    *gpu.Buffer[float64]
	cAdj  *gpu.ConstBuffer[uint8]

	// novelPriors caches the log genotype priors of sites absent from the
	// prior file, one vector per reference base.
	novelPriors [dna.NBases][dna.NGenotypes]float64

	// arena holds the recycled per-window working set plus the per-worker
	// dep_count scratch. Run takes it from Config.Arena or the process
	// pool; direct kernel calls (tests) lazily create a private one.
	arena *Arena

	// pool runs likelihood/posterior shards when ComputeWorkers > 1
	// (CPU mode); nil means inline single-threaded execution.
	pool *computePool

	// Window-persistent device state (GPU mode): the tagged dep_count
	// buffer and its window epoch.
	gDep     *gpu.Buffer[uint32]
	winEpoch uint32

	// Output sinks (exactly one non-nil during Run). textOut is the
	// row-codec sink — the 17-column result table by default, the VCF
	// writer under Config.VCFOutput.
	textOut  snpio.RowWriter
	blockOut *snpio.BlockWriter

	rep *Report
}

// New creates an engine. It returns an error for inconsistent
// configurations (ModeGPU without a device, oversized read length).
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if cfg.Mode == ModeGPU && cfg.Device == nil {
		return nil, fmt.Errorf("gsnp: ModeGPU requires a Device")
	}
	if cfg.ReadLen > bayes.MaxReadLen {
		return nil, fmt.Errorf("gsnp: read length %d exceeds the model maximum %d", cfg.ReadLen, bayes.MaxReadLen)
	}
	if cfg.VCFOutput && cfg.CompressOutput {
		return nil, fmt.Errorf("gsnp: VCFOutput and CompressOutput are mutually exclusive")
	}
	return &Engine{cfg: cfg}, nil
}

// Tables exposes the calibrated tables after a run. They live in the run's
// Arena and are rebuilt in place by that arena's next run, so only a run
// given a Config.Arena leaves them behind; after a run on a pooled arena
// Tables returns nil.
func (e *Engine) Tables() *bayes.Tables { return e.tables }

// minShardSites is the smallest per-shard site count worth handing to a
// pool helper. Dispatching one shard (channel send, WaitGroup traffic,
// helper wakeup, join) costs on the order of ten microseconds of host
// time, while the likelihood + posterior passes cost well under a
// microsecond per site, so a shard needs a few thousand sites before the
// handoff is noise. 2048 keeps the dispatch overhead under ~1% of shard
// compute; see DESIGN.md "Adaptive compute sharding" for the measurement.
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

// simSpan measures the simulated device time consumed by f.
func (e *Engine) simSpan(f func()) time.Duration {
	start := e.cfg.Device.SimTime()
	f()
	return time.Duration((e.cfg.Device.SimTime() - start) * float64(time.Second))
}

// Run executes the pipeline over src, writing results to w (plain text, or
// the compressed container when Config.CompressOutput is set).
func (e *Engine) Run(src pipeline.Source, w io.Writer) (*Report, error) {
	return e.RunContext(context.Background(), src, w)
}

// RunContext is Run with cooperative cancellation: the engine checks ctx
// at every window boundary and every ~1K input records, so a per-task
// deadline (sched.Policy.Timeout) cuts a wedged chromosome short instead
// of letting it run forever.
func (e *Engine) RunContext(ctx context.Context, src pipeline.Source, w io.Writer) (*Report, error) {
	cfg := e.cfg
	rep := &Report{Sites: len(cfg.Ref), NonZeroHist: make([]int64, sparsityHistSize)}
	e.rep = rep

	// Component 7 storage: the window working set is recycled across
	// windows, runs and (via Config.Arena or the process pool) engines.
	if cfg.Arena != nil {
		e.arena = cfg.Arena
	} else {
		e.arena = arenaPool.Get().(*Arena)
		defer func() {
			arenaPool.Put(e.arena)
			e.arena, e.tables = nil, nil
		}()
	}
	if cfg.Mode == ModeCPU && cfg.ComputeWorkers > 1 {
		e.pool = newComputePool(cfg.ComputeWorkers)
		defer func() {
			e.pool.stop()
			e.pool = nil
		}()
	}

	cw := &countingWriter{w: w}

	// Component 1: cal_p_matrix + load_table — one pass over the input to
	// calibrate the score matrix, then build the log table, the adjust
	// table and the new score table on the CPU (Section IV-G) and load
	// them into device memory.
	t0 := time.Now()
	var tempPath string
	var sink func(*reads.AlignedRead) error
	var tw *snpio.TempWriter
	if cfg.UseTempInput {
		f, err := os.CreateTemp(cfg.TempDir, "gsnp-temp-*.bin")
		if err != nil {
			return nil, fmt.Errorf("gsnp: cal_p_matrix: %w", err)
		}
		tempPath = f.Name()
		defer os.Remove(tempPath)
		defer f.Close()
		tw = snpio.NewTempWriter(f, cfg.Chr)
		sink = tw.Write
	}
	// Quarantine mode tolerates malformed records in this pass: the scan
	// must see the whole input, so a corrupt line is skipped and counted
	// rather than aborting the run. Window-level containment happens in
	// pass two, where the failure has a site range to attach to.
	calSrc := pipeline.SourceWithContext(ctx, src)
	if cfg.Quarantine {
		inner := calSrc
		calSrc = pipeline.FuncSource(func() (pipeline.ReadIter, error) {
			it, err := inner.Open()
			if err != nil {
				return nil, err
			}
			return pipeline.NewTolerantIter(it, func(pipeline.RecordError) { rep.CalSkipped++ }), nil
		})
	}
	ar := e.arena
	if ar.cal == nil {
		ar.cal = bayes.NewCalibration()
	}
	meanDepth, err := pipeline.Calibrate(ar.cal, calSrc, cfg.Ref, sink)
	if err != nil {
		return nil, fmt.Errorf("gsnp: cal_p_matrix: %w", err)
	}
	if tw != nil {
		if err := tw.Flush(); err != nil {
			return nil, fmt.Errorf("gsnp: cal_p_matrix: temp input: %w", err)
		}
		// The windowed pass reads the compressed temporary file instead
		// of the original input (Section V-A).
		src = pipeline.FuncSource(func() (pipeline.ReadIter, error) {
			f, err := os.Open(tempPath)
			if err != nil {
				return nil, err
			}
			return &tempIter{f: f, tr: snpio.NewTempReader(f)}, nil
		})
	}
	rep.MeanDepth = meanDepth
	rep.Observations = int64(ar.cal.Observations())
	ar.tables.Build(ar.cal.BuildInto(ar.tables.P))
	e.tables = &ar.tables
	for b := dna.Base(0); b < dna.NBases; b++ {
		e.novelPriors[b] = cfg.Priors.LogPriors(b, nil)
	}
	if cfg.Mode == ModeGPU {
		if err := e.loadTables(); err != nil {
			return nil, err
		}
	}
	rep.Times.CalP = time.Since(t0)

	// Output sink, buffered in the arena. The buffer lets go of the
	// caller's writer when the run ends.
	out := ar.output(cw)
	defer out.Reset(io.Discard)
	switch {
	case cfg.CompressOutput:
		if cfg.Mode == ModeGPU {
			e.blockOut = snpio.NewBlockWriterGPU(out, cfg.Device)
		} else {
			e.blockOut = snpio.NewBlockWriter(out)
		}
	case cfg.VCFOutput:
		e.textOut = snpio.NewVCFWriter(out)
	default:
		e.textOut = snpio.NewResultWriter(out)
	}

	// Pass two: windowed per-site computation.
	it, err := pipeline.SourceWithContext(ctx, src).Open()
	if err != nil {
		return nil, fmt.Errorf("gsnp: read_site: %w", err)
	}
	win := pipeline.NewWindower(it)
	if cfg.Prefetch {
		// read_site for window i+1 overlaps components 3-7 of window i;
		// windows arrive strictly in order, so output bytes are identical
		// to the serial path. Quarantine mode uses the resilient variant,
		// whose producer keeps fetching past a record-level failure.
		var pf *pipeline.WindowPrefetcher
		if cfg.Quarantine {
			pf = pipeline.NewResilientWindowPrefetcher(win, len(cfg.Ref), cfg.Window, 1)
		} else {
			pf = pipeline.NewWindowPrefetcher(win, len(cfg.Ref), cfg.Window, 1)
		}
		defer pf.Stop()
		for {
			pw, ok := pf.Next()
			if !ok {
				break
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			werr := pw.Err
			if werr == nil {
				werr = e.windowAttempt(ctx, pw.Reads, pw.Start, pw.End)
			}
			if werr != nil {
				if ferr := e.quarantineOrFail(pw.Start, pw.End, werr); ferr != nil {
					return nil, ferr
				}
			}
		}
		rep.Prefetch = pf.Stats()
		rep.Times.Read += rep.Prefetch.Wait
	} else {
		for start := 0; start < len(cfg.Ref); start += cfg.Window {
			end := start + cfg.Window
			if end > len(cfg.Ref) {
				end = len(cfg.Ref)
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			// Component 2: read_site, into the arena's recycled read
			// buffer (the prefetch path allocates instead: it runs ahead
			// of the consumer, so its windows can't share one buffer).
			t0 = time.Now()
			rs, werr := win.AppendReads(e.arena.readBuf[:0], start, end)
			if rs != nil {
				e.arena.readBuf = rs[:0]
			}
			rep.Times.Read += time.Since(t0)
			if werr == nil {
				werr = e.windowAttempt(ctx, rs, start, end)
			}
			if werr != nil {
				if ferr := e.quarantineOrFail(start, end, werr); ferr != nil {
					return nil, ferr
				}
			}
		}
	}

	t0 = time.Now()
	if e.textOut != nil {
		if err := e.textOut.Flush(); err != nil {
			return nil, fmt.Errorf("gsnp: output: %w", err)
		}
	} else {
		if err := e.blockOut.Flush(); err != nil {
			return nil, fmt.Errorf("gsnp: output: %w", err)
		}
	}
	rep.Times.Output += time.Since(t0)
	rep.OutputBytes = cw.n

	if cfg.Mode == ModeGPU {
		if rep.PeakDeviceBytes < cfg.Device.AllocatedBytes() {
			rep.PeakDeviceBytes = cfg.Device.AllocatedBytes()
		}
		e.unloadTables()
	}
	return rep, nil
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

// unloadTables releases device table memory.
func (e *Engine) unloadTables() {
	if e.gNewP != nil {
		e.gNewP.Free()
		e.gP.Free()
		e.cAdj.Free()
		e.gNewP, e.gP, e.cAdj = nil, nil, nil
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

// runWindow executes components 3-7 for one window whose reads have
// already been fetched (serially or by the prefetcher).
func (e *Engine) runWindow(rs []reads.AlignedRead, start, end int) error {
	cfg := e.cfg
	rep := e.rep
	w := &e.ar().w
	w.reset(start, end)

	// Counting, host leg: flatten the observations into parallel arrays
	// (the per-aligned-base extraction the counting component performs).
	t0 := time.Now()
	for i := range rs {
		r := &rs[i]
		lo, hi := r.Pos, r.Pos+len(r.Bases)
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		for pos := lo; pos < hi; pos++ {
			o, ok := pipeline.ObsOf(r, pos)
			if !ok {
				continue
			}
			w.obsSite = append(w.obsSite, uint32(pos-start))
			w.obsWord = append(w.obsWord, PackWord(o))
		}
	}
	rep.Times.Count += time.Since(t0)

	// Components 3-7.
	var err error
	if cfg.Mode == ModeGPU {
		err = e.runWindowGPU(w)
	} else {
		err = e.runWindowCPU(w)
	}
	if err != nil {
		return err
	}

	// Sparsity histogram (Figure 4(b)): base_word length per site.
	for site := 0; site < w.n; site++ {
		h := w.words.SizeOf(site)
		if h >= sparsityHistSize {
			h = sparsityHistSize - 1
		}
		rep.NonZeroHist[h]++
	}
	return nil
}

// buildPriors fills the window's per-site log prior vectors (GPU posterior
// kernel input; the CPU path computes priors inside posteriorRange and
// never materialises this array).
func (e *Engine) buildPriors(w *window) []float64 {
	cfg := e.cfg
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
	cfg := e.cfg
	rep := e.rep

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

// writeRows pushes assembled rows to the configured sink; with compressed
// output on the GPU engine this is where the device compression kernels
// run.
func (e *Engine) writeRows(rows []snpio.Row) error {
	if e.textOut != nil {
		for i := range rows {
			if err := e.textOut.Write(&rows[i]); err != nil {
				return fmt.Errorf("gsnp: output: %w", err)
			}
		}
		return nil
	}
	if err := e.blockOut.WriteBlock(rows); err != nil {
		return fmt.Errorf("gsnp: output: %w", err)
	}
	return nil
}

// tempIter streams the compressed temporary input file, closing it when
// the stream ends — at EOF or on any read error, so an aborted run does
// not leak the descriptor.
type tempIter struct {
	f  *os.File
	tr *snpio.TempReader
}

func (it *tempIter) Next() (reads.AlignedRead, error) {
	r, err := it.tr.Next()
	if err != nil && it.f != nil {
		cerr := it.f.Close()
		it.f = nil
		if err == io.EOF && cerr != nil {
			err = cerr
		}
	}
	return r, err
}

// countingWriter tracks bytes written to the sink.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
