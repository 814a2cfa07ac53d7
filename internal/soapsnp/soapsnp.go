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
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/par"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
	"gsnp/internal/snpio"
)

// Config parameterises a run: the settings every engine shares (all but
// Threads — see pipeline.Config, which Run maps them onto) and the dense
// kernel's own.
type Config struct {
	// Chr names the chromosome in output rows.
	Chr string
	// Ref is the reference sequence.
	Ref dna.Sequence
	// Known holds the prior file records (nil for none).
	Known snpio.KnownSNPs
	// Window is the number of sites per window; SOAPsnp's default is
	// 4,000 (Section VI-A).
	Window int
	// Priors configures the genotype prior model.
	Priors bayes.Priors
	// Threads parallelises the likelihood calculation across the sites
	// of a window. The shipped SOAPsnp is single-threaded (the paper's
	// baseline); the paper's authors report that their 16-thread port
	// gained only 3-4x because the dense scan is bound by memory
	// bandwidth (Section VI-A). Zero or one selects the single-threaded
	// baseline.
	Threads int
	// Prefetch overlaps read_site I/O for window i+1 with the
	// computation of window i. The serial path remains the default so
	// the Table I component timings are unaffected.
	Prefetch bool
	// Quarantine contains window-level failures (malformed records,
	// panicking windows) instead of aborting the run.
	Quarantine bool
	// WindowHook, when non-nil, runs before each window's computation —
	// the fault-injection seam (see internal/faults).
	WindowHook func(ctx context.Context, window, start, end int) error
	// VCFOutput writes VCFv4.2 variant records instead of the 17-column
	// result table, so either engine can serve the FASTQ-to-VCF workload.
	VCFOutput bool
}

// DefaultWindow is SOAPsnp's window size from the paper's setup.
const DefaultWindow = 4000

// Engine is the dense window kernel — components 3-7 over base_occ —
// behind the two-pass driver (pipeline.Run). One Engine may be reused for
// several runs; it owns the large window buffers, the score tables and,
// for its own Run, the driver's scratch, so a second run allocates next to
// nothing.
type Engine struct {
	cfg     Config
	tables  bayes.Tables
	scratch pipeline.Scratch

	// run is the driver's side of the current run, handed over in Prepare:
	// the shared settings, the dep_count stride, the report and the sink.
	run *pipeline.RunState

	// Window state, sized in Prepare.
	baseOcc  []uint8
	counts   []pipeline.SiteCounts
	quals    [][dna.NBases][]float64
	likely   [][bayes.TypeLikelySize]float64
	calls    []bayes.Call
	rows     []snpio.Row
	depCount []uint16
}

// New creates an engine.
func New(cfg Config) *Engine {
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	return &Engine{cfg: cfg}
}

// Run executes the seven-component pipeline over src, writing the result
// table as text to w.
func (e *Engine) Run(src pipeline.Source, w io.Writer) (*pipeline.Report, error) {
	return e.RunContext(context.Background(), src, w)
}

// RunContext is Run with cooperative cancellation; see pipeline.Run.
func (e *Engine) RunContext(ctx context.Context, src pipeline.Source, w io.Writer) (*pipeline.Report, error) {
	c := &e.cfg
	return pipeline.Run(ctx, pipeline.Config{
		Chr: c.Chr, Ref: c.Ref, Known: c.Known, Priors: c.Priors, Window: c.Window,
		Prefetch: c.Prefetch, Quarantine: c.Quarantine, WindowHook: c.WindowHook,
		VCFOutput: c.VCFOutput, Scratch: &e.scratch,
	}, src, w, e)
}

// Prepare implements pipeline.Kernel: derive p_matrix and the log/adjust
// tables from the calibration — the dense likelihood takes its logarithms
// at run time, so no new_p_matrix — and size the window buffers.
func (e *Engine) Prepare(st *pipeline.RunState) error {
	e.run = st
	if e.tables.Log == nil {
		e.tables.Log = bayes.BuildLogTable()
		e.tables.Adjust = bayes.BuildAdjustTable(e.tables.Log)
	}
	e.tables.P = st.Cal.BuildInto(e.tables.P)
	e.allocWindow(st.Window, st.Stride)
	return nil
}

// allocWindow sizes the per-window buffers for n sites at dep_count stride
// stride.
func (e *Engine) allocWindow(n, stride int) {
	if len(e.baseOcc) != n*bayes.BaseOccSize {
		e.baseOcc = make([]uint8, n*bayes.BaseOccSize)
		e.counts = make([]pipeline.SiteCounts, n)
		e.quals = make([][dna.NBases][]float64, n)
		e.likely = make([][bayes.TypeLikelySize]float64, n)
		e.calls = make([]bayes.Call, n)
		e.rows = make([]snpio.Row, n)
	}
	if len(e.depCount) != 2*stride {
		e.depCount = make([]uint16, 2*stride)
	}
}

// Window implements pipeline.Kernel: components 3-7 for one window
// [start, end) whose reads were already fetched.
func (e *Engine) Window(rs []reads.AlignedRead, start, end int) error {
	cfg := &e.run.Config
	rep := e.run.Report
	n := end - start

	// Component 3: counting — scatter every aligned base into the dense
	// base_occ matrix and the per-site summaries.
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
			site := pos - start
			idx := site*bayes.BaseOccSize + bayes.BaseOccIndex(o.Base, o.Qual, int(o.Coord), int(o.Strand))
			if e.baseOcc[idx] < 255 {
				e.baseOcc[idx]++
			}
			e.counts[site].Add(o)
			e.quals[site][o.Base] = append(e.quals[site][o.Base], float64(o.Qual))
		}
	}
	rep.Times.Count += time.Since(t0)

	// Component 4: likelihood — Algorithm 1 over the dense matrix,
	// optionally parallelised across sites (the paper's multi-threaded
	// SOAPsnp port, which saturates on memory bandwidth).
	t0 = time.Now()
	if e.cfg.Threads > 1 {
		e.likelihoodParallel(n, e.run.Stride, rep)
	} else {
		for site := 0; site < n; site++ {
			nz := DenseLikelihood(e.baseOcc[site*bayes.BaseOccSize:(site+1)*bayes.BaseOccSize],
				&e.tables, e.run.Stride, e.depCount, &e.likely[site])
			rep.NonZeroHist[min(nz, pipeline.SparsityHistSize-1)]++
		}
	}
	rep.Times.LikeliComp += time.Since(t0)

	// Component 5: posterior.
	t0 = time.Now()
	for site := 0; site < n; site++ {
		ref := cfg.Ref[start+site]
		known := cfg.Known[start+site]
		lp := cfg.Priors.LogPriors(ref, known)
		e.calls[site] = bayes.Posterior(&e.likely[site], &lp)
	}
	rep.Times.Post += time.Since(t0)

	// Component 6: output.
	t0 = time.Now()
	rows := e.rows[:n]
	for site := range rows {
		rows[site] = pipeline.BuildRow(&pipeline.RowInputs{
			Chr:         cfg.Chr,
			Pos:         start + site,
			Ref:         cfg.Ref[start+site],
			Call:        e.calls[site],
			Counts:      &e.counts[site],
			AlleleQuals: &e.quals[site],
			MeanDepth:   rep.MeanDepth,
			Known:       cfg.Known[start+site],
		})
		if rows[site].IsSNP() {
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

// Abandon implements pipeline.Kernel: recycle after a quarantined window
// too, so that a window abandoned mid-counting cannot leak observations
// into its successor.
func (e *Engine) Abandon(start, end int) { e.resetWindow(end - start) }

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
}

// Finish implements pipeline.Kernel; the dense kernel holds nothing that
// outlives a run.
func (e *Engine) Finish() {}

// DenseLikelihood is Algorithm 1: the likelihood calculation for one site
// over the dense base_occ matrix, accessing all 131,072 elements in the
// canonical base / score (descending) / coordinate / strand order. The
// scan reads eight counters per load so that, like the original SOAPsnp,
// its cost is the sequential memory bandwidth of sweeping the matrix
// (Formula 1 / Figure 4a) rather than per-byte branch overhead. It returns
// the number of non-zero elements encountered (the sparsity datum of
// Figure 4(b)). depCount must hold 2*readLen entries and is reset
// internally.
func DenseLikelihood(baseOcc []uint8, t *bayes.Tables, readLen int, depCount []uint16, tl *[bayes.TypeLikelySize]float64) (nonZero int) {
	for i := range tl {
		tl[i] = 0
	}
	// Each (base, score) row spans 512 consecutive bytes (coord x strand,
	// strand in the lowest bit). The matrix sweep itself runs forward in
	// memory — eight counters per load, prefetch-friendly, so its cost is
	// the sequential read bandwidth of Formula 1 — while the sparse
	// non-zero groups it finds are then processed in the canonical
	// base / score-descending / coord / strand order of Algorithm 1.
	const rowBytes = 2 * bayes.MaxReadLen
	const baseBytes = bayes.NQ * rowBytes
	var nz []int32 // offsets (within a base's block) of non-zero words
	for base := dna.Base(0); base < dna.NBases; base++ {
		clear(depCount)
		blk := int(base) * baseBytes
		nz = nz[:0]
		for off := 0; off < baseBytes; off += 8 {
			if binary.LittleEndian.Uint64(baseOcc[blk+off:]) != 0 {
				nz = append(nz, int32(off))
			}
		}
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
				end := off + 8
				if max := rowStart + 2*readLen; end > max {
					end = max
				}
				for i := off; i < end; i++ {
					occ := baseOcc[blk+i]
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
	}
	return nonZero
}

// likelihoodParallel fans the window's dense likelihood scans across
// Config.Threads workers. Each worker owns a dep_count array; histogram
// updates merge at the end. Since every worker streams a disjoint slice of
// the same base_occ buffer, the aggregate rate is capped by the machine's
// memory bandwidth — the reason the paper's 16-thread port only reached
// 3-4x.
func (e *Engine) likelihoodParallel(n, stride int, rep *pipeline.Report) {
	hists := make([][]int64, min(e.cfg.Threads, n))
	// A worker's panic is re-raised here once every worker has returned, so
	// no shard is still writing the window buffers when the driver's
	// containment unwinds past them.
	par.Range(n, len(hists), func(wkr, lo, hi int) {
		dep := make([]uint16, 2*stride)
		hist := make([]int64, pipeline.SparsityHistSize)
		for site := lo; site < hi; site++ {
			nz := DenseLikelihood(e.baseOcc[site*bayes.BaseOccSize:(site+1)*bayes.BaseOccSize],
				&e.tables, stride, dep, &e.likely[site])
			hist[min(nz, pipeline.SparsityHistSize-1)]++
		}
		hists[wkr] = hist
	})
	for _, hist := range hists {
		for k, c := range hist {
			rep.NonZeroHist[k] += c
		}
	}
}
