package pipeline

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/par"
	"gsnp/internal/reads"
	"gsnp/internal/snpio"
)

// The paper draws SOAPsnp (Figure 1) and GSNP (Figure 2) as the same
// seven-component workflow — cal_p_matrix, read_site, then components 3-7
// per window — differing only in the per-window data structure. Run is that
// workflow, once: it owns both passes over the input, the window loop,
// cancellation, fault containment and the output sink, and drives a Kernel
// that owns nothing but components 3-7 and the tables they read. Dense CPU,
// sparse CPU and sparse GPU are three kernels behind the one driver, which
// is what makes a host-side change land in all of them at once.

// Config is what every engine run shares: the chromosome, the model inputs
// of components 3-7, and the driver's own switches.
type Config struct {
	// Chr names the chromosome in output rows.
	Chr string
	// Ref is the reference sequence.
	Ref dna.Sequence
	// Known holds the prior-file records (nil for none).
	Known snpio.KnownSNPs
	// Priors configures the genotype prior model; the zero value selects
	// bayes.DefaultPriors.
	Priors bayes.Priors
	// Window is the number of sites per window.
	Window int
	// Prefetch overlaps read_site I/O for window i+1 with components 3-7
	// of window i (double buffering). Output is byte-identical either way.
	Prefetch bool
	// Quarantine contains window-level failures instead of aborting the
	// run: a malformed alignment record or a panicking window computation
	// is recorded in Report.Quarantined (window index, site range, input
	// position, cause) and the run continues with the next window. The
	// calibration pass skips malformed records, counted in
	// Report.CalSkipped. Output on the success path is byte-identical with
	// or without quarantine; a quarantined window emits no rows.
	// Non-containable failures — I/O errors, output-sink errors, context
	// cancellation — still abort the run so the task-level retry policy
	// (internal/sched) can handle them.
	Quarantine bool
	// WindowHook, when non-nil, runs before each window's computation
	// with the window index and site range. A returned error or a panic
	// is treated exactly like a failure of the window itself — the seam
	// internal/faults uses to inject worker panics and stalls.
	WindowHook func(ctx context.Context, window, start, end int) error
	// VCFOutput writes VCFv4.2 variant records instead of the 17-column
	// result table (SNP rows only — the codec filters homozygous-reference
	// sites).
	VCFOutput bool
	// CompressOutput writes the GSNP compressed container instead of text;
	// it takes precedence over VCFOutput.
	CompressOutput bool
	// Scratch supplies the driver's recycled per-run storage; nil runs on
	// fresh storage.
	Scratch *Scratch
}

// Kernel is one engine's implementation of components 3-7 (counting,
// likelihood, posterior, output, recycle) over one window, plus the tables
// they read. Run calls Prepare once after the calibration pass, Window for
// every window in site order, Abandon after every window it gave up on, and
// Finish exactly once on every exit path — including a failed calibration
// pass, where Prepare never ran.
type Kernel interface {
	// Prepare builds the tables the kernel needs from st.Cal, sizes its
	// window buffers for st.Window sites at st.Stride, and uploads device
	// tables. The kernel keeps st for the run: it reads the settings and
	// the mean depth from it, writes rows to st.Out and accumulates its
	// stage timers and counters into st.Report.
	Prepare(st *RunState) error
	// Window runs components 3-7 over [start, end) given every read
	// overlapping it. It adds to the Count, LikeliSort, LikeliComp, Post,
	// Output and Recycle timers (a kernel without a separate sort stage
	// fills LikeliComp alone), to SNPs and to NonZeroHist.
	Window(rs []reads.AlignedRead, start, end int) error
	// Abandon restores the kernel's window state after a contained failure
	// of [start, end), which may have been left half-filled — or never
	// reached, when the failure was in read_site or the hook.
	Abandon(start, end int)
	// Finish releases what Prepare acquired (device tables, worker pools).
	Finish()
}

// RunState is what the driver shares with its kernel for one run.
type RunState struct {
	// Config is the run's settings with defaults applied.
	Config
	// Cal holds the calibration pass's counters. The storage belongs to the
	// driver's Scratch: a kernel builds its tables from it in Prepare and
	// does not keep it.
	Cal *bayes.Calibration
	// Stride is the per-strand length of a site's dep_count array:
	// max(MinStride, longest read of the calibration pass), at most
	// bayes.MaxReadLen. Every coordinate pass two hands a kernel is below
	// it.
	Stride int
	// Report is the run's report; MeanDepth and Observations are set
	// before Prepare.
	Report *Report
	// Out receives each window's rows.
	Out Sink
}

// MinStride is SOAPsnp's historical read-length constant, the dep_count
// stride of every input whose reads are no longer than it — which keeps
// the GPU engine's dep_count buffer (800 B a site at this stride) where it
// has always been for the paper's 100 bp data.
const MinStride = 100

// Sink is where component 6 puts a window's rows: the 17-column table, VCF
// records or the compressed container, whose block is the window.
type Sink interface {
	WriteBlock(rows []snpio.Row) error
	Flush() error
}

// rowSink adapts a row-at-a-time codec to Sink.
type rowSink struct{ snpio.RowWriter }

// RowSink returns the Sink that writes rows one by one through rw.
func RowSink(rw snpio.RowWriter) Sink { return rowSink{rw} }

func (s rowSink) WriteBlock(rows []snpio.Row) error {
	for i := range rows {
		if err := s.Write(&rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// blockEncoder is implemented by a kernel that compresses the container's
// columns itself — the GPU engine's device codec — so that this package
// need not know the device.
type blockEncoder interface {
	BlockWriter(w io.Writer) *snpio.BlockWriter
}

// newSink selects the run's output codec over w.
func newSink(cfg *Config, w io.Writer, k Kernel) Sink {
	switch {
	case cfg.CompressOutput:
		if be, ok := k.(blockEncoder); ok {
			return be.BlockWriter(w)
		}
		return snpio.NewBlockWriter(w)
	case cfg.VCFOutput:
		return RowSink(snpio.NewVCFWriter(w))
	default:
		return RowSink(snpio.NewResultWriter(w))
	}
}

// Scratch is the driver's recycled per-run storage: the calibration
// counters (2 MB, reset and refilled by every run), the serial read_site
// path's read buffer and the output buffer. A Scratch serves one Run at a
// time but may be handed from run to run, across engines — gsnp.Arena holds
// one, which is how a whole-genome worker amortises it over every
// chromosome it processes.
type Scratch struct {
	cal     *bayes.Calibration
	readBuf []reads.AlignedRead
	out     *bufio.Writer
}

// outBufBytes is the buffer size the snpio result codecs ask bufio for.
const outBufBytes = 1 << 20

// output returns the scratch's output buffer, emptied and pointed at w. The
// result codecs wrap their sink with bufio.NewWriterSize, which adopts a
// bufio.Writer that is already large enough instead of stacking a second
// one, so constructing a codec over this buffer allocates none of its own.
func (s *Scratch) output(w io.Writer) *bufio.Writer {
	if s.out == nil {
		s.out = bufio.NewWriterSize(w, outBufBytes)
	} else {
		s.out.Reset(w)
	}
	return s.out
}

// Times is the per-component breakdown of Tables I and IV. The driver owns
// CalP (the calibration pass plus Kernel.Prepare) and Read (serial
// read_site, or the residual wait on the prefetcher) and adds the final
// flush to Output; the kernel owns the rest. GPU components combine the
// simulated device time of their kernels and copies with the host time of
// their host-side work.
type Times struct {
	CalP       time.Duration
	Read       time.Duration
	Count      time.Duration
	LikeliSort time.Duration
	LikeliComp time.Duration
	Post       time.Duration
	Output     time.Duration
	Recycle    time.Duration
}

// Likeli is the combined likelihood component (sort + comp); the dense
// engine, which has no sort stage, reports all of it as LikeliComp.
func (t Times) Likeli() time.Duration { return t.LikeliSort + t.LikeliComp }

// Total sums the components.
func (t Times) Total() time.Duration {
	return t.CalP + t.Read + t.Count + t.LikeliSort + t.LikeliComp + t.Post + t.Output + t.Recycle
}

func (t Times) String() string {
	return fmt.Sprintf("cal_p=%v read=%v count=%v likeli=%v(sort=%v,comp=%v) post=%v output=%v recycle=%v total=%v",
		t.CalP.Round(time.Microsecond), t.Read.Round(time.Microsecond), t.Count.Round(time.Microsecond),
		t.Likeli().Round(time.Microsecond), t.LikeliSort.Round(time.Microsecond), t.LikeliComp.Round(time.Microsecond),
		t.Post.Round(time.Microsecond), t.Output.Round(time.Microsecond), t.Recycle.Round(time.Microsecond),
		t.Total().Round(time.Microsecond))
}

// Report summarises a run.
type Report struct {
	// Times is the component breakdown.
	Times Times
	// Sites is the number of sites processed (= len(Ref)).
	Sites int
	// SNPs is the number of non-reference calls emitted.
	SNPs int64
	// MeanDepth is the pass-one average depth.
	MeanDepth float64
	// Observations is the total number of aligned bases processed.
	Observations int64
	// NonZeroHist[k] counts sites with k non-zero base_occ elements, which
	// is the length of the site's base_word array (k capped at
	// SparsityHistSize-1) — the sparsity data of Figure 4(b).
	NonZeroHist []int64
	// OutputBytes is the number of result bytes written.
	OutputBytes int64
	// Prefetch reports the window-prefetch counters when Config.Prefetch
	// is set (zero otherwise): Fetch is read_site work that overlapped
	// computation, Wait the residual blocking left in Times.Read.
	Prefetch PrefetchStats
	// Quarantined lists the windows abandoned under Config.Quarantine; a
	// non-empty list marks the run's output as partial.
	Quarantined []Quarantine
	// CalSkipped counts malformed records skipped during the calibration
	// pass under Config.Quarantine.
	CalSkipped int
}

// SparsityHistSize is the length of Report.NonZeroHist.
const SparsityHistSize = 257

// Partial reports whether the run degraded: any quarantined window or
// skipped calibration record means the output is incomplete.
func (r *Report) Partial() bool {
	return len(r.Quarantined) > 0 || r.CalSkipped > 0
}

// Run executes the two-pass pipeline over src with k computing the windows,
// writing results to w. It checks ctx at every window boundary and every
// ~1K input records, so a per-task deadline (sched.Policy.Timeout) cuts a
// wedged chromosome short instead of letting it run forever. A failed run
// returns no report.
func Run(ctx context.Context, cfg Config, src Source, w io.Writer, k Kernel) (*Report, error) {
	defer k.Finish()
	if cfg.Window <= 0 {
		return nil, fmt.Errorf("pipeline: window of %d sites", cfg.Window)
	}
	if cfg.Priors == (bayes.Priors{}) {
		cfg.Priors = bayes.DefaultPriors()
	}
	sc := cfg.Scratch
	if sc == nil {
		sc = new(Scratch)
	}
	rep := &Report{Sites: len(cfg.Ref), NonZeroHist: make([]int64, SparsityHistSize)}

	// Component 1: cal_p_matrix + load_table — one pass over the input to
	// calibrate the score matrix, then the kernel builds its tables from
	// the counters on the CPU (Section IV-G) and loads them.
	t0 := time.Now()
	// Quarantine mode tolerates malformed records in this pass: the scan
	// must see the whole input, so a corrupt line is skipped and counted
	// rather than aborting the run. Window-level containment happens in
	// pass two, where the failure has a site range to attach to.
	calSrc := SourceWithContext(ctx, src)
	if cfg.Quarantine {
		inner := calSrc
		calSrc = FuncSource(func() (ReadIter, error) {
			it, err := inner.Open()
			if err != nil {
				return nil, err
			}
			return NewTolerantIter(it, func(RecordError) { rep.CalSkipped++ }), nil
		})
	}
	if sc.cal == nil {
		sc.cal = bayes.NewCalibration()
	}
	meanDepth, longest, err := Calibrate(sc.cal, calSrc, cfg.Ref, nil)
	if err != nil {
		return nil, fmt.Errorf("cal_p_matrix: %w", err)
	}
	rep.MeanDepth = meanDepth
	rep.Observations = int64(sc.cal.Observations())

	// Output sink, buffered in the scratch. The buffer lets go of the
	// caller's writer when the run ends.
	cw := &countingWriter{w: w}
	buf := sc.output(cw)
	defer buf.Reset(io.Discard)
	st := &RunState{
		Config: cfg,
		Cal:    sc.cal,
		Stride: min(max(MinStride, longest), bayes.MaxReadLen),
		Report: rep,
		Out:    newSink(&cfg, buf, k),
	}
	if err := k.Prepare(st); err != nil {
		return nil, err
	}
	rep.Times.CalP = time.Since(t0)

	// Pass two: windowed per-site computation.
	it, err := SourceWithContext(ctx, src).Open()
	if err != nil {
		return nil, fmt.Errorf("read_site: %w", err)
	}
	if st.Stride < bayes.MaxReadLen {
		it = &strideIter{it: it, stride: st.Stride}
	}
	win := NewWindower(it)
	var pf *WindowPrefetcher
	if cfg.Prefetch {
		// read_site for window i+1 overlaps components 3-7 of window i;
		// windows arrive strictly in order, so output bytes are identical
		// to the serial path. Under quarantine the producer keeps fetching
		// past a record-level failure.
		pf = NewWindowPrefetcher(win, len(cfg.Ref), cfg.Window, cfg.Quarantine)
		defer pf.Stop()
	}
	for start := 0; start < len(cfg.Ref); start += cfg.Window {
		end := min(start+cfg.Window, len(cfg.Ref))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Component 2: read_site — from the prefetcher, or serially into
		// the scratch's recycled read buffer (the prefetcher allocates
		// instead: it runs ahead of the consumer, so its windows can't
		// share one buffer).
		var rs []reads.AlignedRead
		var werr error
		if pf != nil {
			pw, ok := pf.Next()
			if !ok {
				return nil, fmt.Errorf("read_site: prefetcher stopped before window [%d,%d)", start, end)
			}
			rs, werr = pw.Reads, pw.Err
		} else {
			t0 = time.Now()
			rs, werr = win.AppendReads(sc.readBuf[:0], start, end)
			if rs != nil {
				sc.readBuf = rs[:0]
			}
			rep.Times.Read += time.Since(t0)
		}
		if werr == nil {
			werr = windowAttempt(ctx, &cfg, k, rs, start, end)
		}
		if werr == nil {
			continue
		}
		// The failure domain is one window: a malformed record surfacing
		// from read_site or a panic anywhere in components 3-7 abandons
		// that window's output and the run moves on, recording what
		// happened and where. Everything else aborts the run.
		if !cfg.Quarantine || !Containable(werr) {
			return nil, fmt.Errorf("window [%d,%d): %w", start, end, werr)
		}
		rep.Quarantined = append(rep.Quarantined, NewQuarantine(cfg.Chr, start/cfg.Window, start, end, werr))
		k.Abandon(start, end)
	}
	if pf != nil {
		rep.Prefetch = pf.Stats()
		rep.Times.Read += rep.Prefetch.Wait
	}

	t0 = time.Now()
	if err := st.Out.Flush(); err != nil {
		return nil, fmt.Errorf("output: %w", err)
	}
	rep.Times.Output += time.Since(t0)
	rep.OutputBytes = cw.n
	return rep, nil
}

// windowAttempt runs the window hook and components 3-7 for one window,
// converting a panic into a *par.PanicError when quarantine is enabled (without
// quarantine, panics propagate and crash as before).
func windowAttempt(ctx context.Context, cfg *Config, k Kernel, rs []reads.AlignedRead, start, end int) (err error) {
	if cfg.Quarantine {
		defer func() {
			if pe := par.Recovered(recover()); pe != nil {
				err = pe
			}
		}()
	}
	if cfg.WindowHook != nil {
		if err := cfg.WindowHook(ctx, start/cfg.Window, start, end); err != nil {
			return err
		}
	}
	return k.Window(rs, start, end)
}

// strideIter guards pass two against a read longer than the dep_count
// stride the calibration pass established — the input changed between the
// passes, or pass one skipped the record. The kernels index dep_count by
// strand*stride+coord without a bounds check of their own, so the read
// becomes a record-scoped error for its window here.
type strideIter struct {
	it     ReadIter
	stride int
}

func (s *strideIter) Next() (reads.AlignedRead, error) {
	r, err := s.it.Next()
	if err == nil && len(r.Bases) > s.stride {
		return reads.AlignedRead{}, &ReadLengthError{ID: r.ID, Pos: r.Pos, Len: len(r.Bases), Stride: s.stride}
	}
	return r, err
}

// ReadLengthError reports a pass-two read longer than any the calibration
// pass saw. It is a RecordError: the stream stays readable past it.
type ReadLengthError struct {
	// ID and Pos identify the read; Len is its length.
	ID       int64
	Pos, Len int
	// Stride is the run's dep_count stride.
	Stride int
}

func (e *ReadLengthError) Error() string {
	return fmt.Sprintf("read %d at %d has %d bases, the calibration pass saw none longer than %d", e.ID, e.Pos, e.Len, e.Stride)
}

// Record implements RecordError; the input position is not tracked here.
func (e *ReadLengthError) Record() (line int, offset int64) { return 0, -1 }

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
