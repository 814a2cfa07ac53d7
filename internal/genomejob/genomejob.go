// Package genomejob is the shared decomposition of a genome-calling job
// into per-chromosome work units, used by both the gsnp CLI's -genome-dir
// batch mode and the gsnpd service. A job is a set of <name>.fa/<name>.aln
// pairs (the paper's production layout: 24 separate chromosome data sets);
// each pair becomes one Unit, and a Worker's Call runs one Unit through the
// selected engine. Keeping discovery and engine dispatch here guarantees the
// CLI and the service produce byte-identical output for the same inputs.
package genomejob

import (
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"gsnp/internal/align"
	"gsnp/internal/checkpoint"
	"gsnp/internal/dna"
	"gsnp/internal/faults"
	"gsnp/internal/gpu"
	"gsnp/internal/gsnp"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
	"gsnp/internal/sched"
	"gsnp/internal/snpio"
	"gsnp/internal/soapsnp"
)

// Options selects the engine configuration shared by every unit of a job.
// It is also the option half of gsnpd's job spec (service.JobSpec embeds
// it): a field with a JSON name is accepted over the wire, and a field
// tagged "-" is the CLI's alone.
type Options struct {
	// Engine is soapsnp, gsnp-cpu or gsnp-gpu.
	Engine string `json:"engine,omitempty"`
	// Format is the alignment format: soap, sam, or fastq (raw reads;
	// a unit's input is aligned in-process before calling).
	Format string `json:"format,omitempty"`
	// Window is sites per window (0 = engine default).
	Window int `json:"window,omitempty"`
	// ComputeWorkers shards likelihood/posterior within a window
	// (gsnp-cpu; 0 = GOMAXPROCS).
	ComputeWorkers int `json:"compute_workers,omitempty"`
	// Prefetch overlaps window read I/O with computation.
	Prefetch bool `json:"prefetch,omitempty"`
	// Compress writes the GSNP compressed container (gsnp engines only).
	Compress bool `json:"compress,omitempty"`
	// Quarantine contains malformed records and panicking windows instead
	// of aborting the unit.
	Quarantine bool `json:"quarantine,omitempty"`
	// Stats writes per-component timing diagnostics to Call's diag writer.
	Stats bool `json:"-"`
	// Injector injects deterministic failures (testing; see internal/faults).
	Injector *faults.Injector `json:"-"`
	// OutputFormat selects the result codec: "" or "rows" for the paper's
	// 17-column table, "vcf" for VCFv4.2 variant records.
	OutputFormat string `json:"output_format,omitempty"`
	// AlignMaxMismatch is the aligner's per-read mismatch budget
	// (Format fastq only; 0 = align.DefaultMaxMismatch).
	AlignMaxMismatch int `json:"align_max_mismatch,omitempty"`
	// AlignSeedLen is the aligner's k-mer seed length (Format fastq only;
	// 0 = align.DefaultK, max 31).
	AlignSeedLen int `json:"align_seed_len,omitempty"`
	// AlignWorkers shards the alignment stage of a fastq unit (0 =
	// GOMAXPROCS). Output is byte-identical at every setting, so the knob
	// is fingerprint-exempt like the other concurrency options.
	AlignWorkers int `json:"-"`
}

// VCF reports whether the options select the VCF output codec.
func (o *Options) VCF() bool { return o.OutputFormat == "vcf" }

// alignParams resolves the aligner's fingerprinted parameters to their
// effective values, so "default" and "explicitly the default" fingerprint
// (and cache) identically.
func (o *Options) alignParams() (mm, k int) {
	mm, k = o.AlignMaxMismatch, o.AlignSeedLen
	if mm == 0 {
		mm = align.DefaultMaxMismatch
	}
	if k == 0 {
		k = align.DefaultK
	}
	return mm, k
}

// Validate rejects unknown engine/format combinations with the same rules
// the CLI has always enforced.
func (o *Options) Validate() error {
	switch o.Engine {
	case "soapsnp":
		if o.Compress {
			return fmt.Errorf("compress requires a gsnp engine")
		}
	case "gsnp-cpu", "gsnp-gpu":
	default:
		return fmt.Errorf("unknown engine %q", o.Engine)
	}
	if o.Format != "soap" && o.Format != "sam" && o.Format != "fastq" {
		return fmt.Errorf("unknown alignment format %q", o.Format)
	}
	if o.Window < 0 {
		return fmt.Errorf("negative window %d", o.Window)
	}
	switch o.OutputFormat {
	case "", "rows":
	case "vcf":
		if o.Compress {
			return fmt.Errorf("vcf output and compress are mutually exclusive")
		}
	default:
		return fmt.Errorf("unknown output format %q", o.OutputFormat)
	}
	if o.Format != "fastq" {
		if o.AlignMaxMismatch != 0 || o.AlignSeedLen != 0 || o.AlignWorkers != 0 {
			return fmt.Errorf("aligner options require -format fastq")
		}
		return nil
	}
	if o.AlignMaxMismatch < 0 {
		return fmt.Errorf("negative aligner mismatch budget %d", o.AlignMaxMismatch)
	}
	if o.AlignSeedLen < 0 || o.AlignSeedLen > 31 {
		return fmt.Errorf("aligner seed length %d out of range [0, 31]", o.AlignSeedLen)
	}
	return nil
}

// Fingerprint returns the output-shaping configuration fingerprint — the
// canonical checkpoint.Fingerprint call both front-ends share. It feeds
// checkpoint resume validation and the gsnpd result-cache key, so every
// Options field that can change result bytes must flow into it; the
// pinning test in this package enumerates the fields against the exempt
// list (concurrency/diagnostic knobs with byte-identity guarantees).
//
// The VCF codec and the aligner parameters ride the fingerprint's extra
// slots, appended only when active: a pre-existing soap/sam job keeps the
// exact key it had before those options existed, so caches and
// checkpoints written by older builds stay valid (pinned by the
// compatibility test in this package).
func (o *Options) Fingerprint() string {
	var extra []string
	if o.VCF() {
		extra = append(extra, "output=vcf")
	}
	if o.Format == "fastq" {
		mm, k := o.alignParams()
		extra = append(extra, fmt.Sprintf("align-mm=%d align-k=%d", mm, k))
	}
	return checkpoint.Fingerprint(o.Engine, o.Format, o.Window, o.Compress, o.Quarantine, extra...)
}

// OutSuffix is the output-file suffix the options imply (.result,
// .result.gsnp for compressed containers, or .vcf).
func (o *Options) OutSuffix() string {
	if o.VCF() {
		return ".vcf"
	}
	if o.Compress {
		return ".result.gsnp"
	}
	return ".result"
}

// OutName maps a unit's task name (the .fa file's base name) to the
// output file name a batch run writes for it — the same derivation
// Discover applies to full paths, shared so the gsnpd journal's durable
// work directories use the CLI's exact layout and checkpoint keys.
func (o *Options) OutName(unitName string) string {
	return strings.TrimSuffix(unitName, ".fa") + o.OutSuffix()
}

// UnitDigests computes every unit's content digest in Discover order —
// the per-chromosome half of both the result-cache key and the job
// journal's recorded input identity.
func UnitDigests(units []Unit) ([]string, error) {
	digests := make([]string, len(units))
	for i, u := range units {
		d, err := u.ContentDigest()
		if err != nil {
			return nil, err
		}
		digests[i] = d
	}
	return digests, nil
}

// Unit is one chromosome's work: the input files and the output path a
// batch run would write. Name identifies the unit in reports (the .fa
// file's base name, matching the scheduler task names the CLI has always
// printed).
type Unit struct {
	Name string
	// Ref, Aln and SNP are input paths; SNP may be empty.
	Ref, Aln, SNP string
	// OutPath is where a batch run writes this unit's result (derived from
	// Ref and Options.OutSuffix; the service ignores it and streams bytes
	// instead).
	OutPath string
}

// ContentDigest returns a sha256 over the unit's name and the *bytes* of
// every input file (reference, alignment, and priors when present) — the
// content-addressed half of a job's cache key. Hashing contents rather
// than paths means a re-generated input invalidates naturally, and two
// paths holding identical data share one cache entry (an uploaded job and
// a genome-dir job over the same files hit the same key).
func (u Unit) ContentDigest() (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "unit %s\n", u.Name)
	for _, path := range []string{u.Ref, u.Aln, u.SNP} {
		if path == "" {
			fmt.Fprintln(h, "-")
			continue
		}
		d, err := checkpoint.FileDigest(path)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// AlnExt is the input-file extension a format implies: the format name
// itself for the alignment formats, "fq" for raw FASTQ reads. Discover's
// pairing and the service's upload spooling both use it, so an uploaded
// job and a genome-dir job over the same inputs lay out identically.
func AlnExt(format string) string {
	if format == "fastq" {
		return "fq"
	}
	return format
}

// Skipped records a reference file Discover could not pair with an
// alignment file.
type Skipped struct {
	Ref, Aln string
}

// Discover scans dir for <name>.fa references, pairing each with its
// <name>.<format> alignment file and optional <name>.snp priors. Units
// come back sorted by reference path — the deterministic input order the
// scheduler's guarantees are anchored to. References with no alignment
// file are returned in skipped rather than failing the whole job.
func Discover(dir string, o Options) (units []Unit, skipped []Skipped, err error) {
	fas, err := filepath.Glob(filepath.Join(dir, "*.fa"))
	if err != nil {
		return nil, nil, err
	}
	if len(fas) == 0 {
		return nil, nil, fmt.Errorf("no .fa files in %s", dir)
	}
	sort.Strings(fas)
	for _, fa := range fas {
		base := strings.TrimSuffix(fa, ".fa")
		aln := base + "." + AlnExt(o.Format)
		if _, err := os.Stat(aln); err != nil {
			skipped = append(skipped, Skipped{Ref: fa, Aln: aln})
			continue
		}
		snp := base + ".snp"
		if _, err := os.Stat(snp); err != nil {
			snp = ""
		}
		units = append(units, Unit{
			Name:    filepath.Base(fa),
			Ref:     fa,
			Aln:     aln,
			SNP:     snp,
			OutPath: base + o.OutSuffix(),
		})
	}
	return units, skipped, nil
}

// Result is what one unit's engine run reports back.
type Result struct {
	// Sites is the number of reference sites processed.
	Sites int
	// CalSkipped counts calibration records skipped under quarantine.
	CalSkipped int
	// Quarantined lists the windows quarantine mode contained.
	Quarantined []pipeline.Quarantine
}

// Partial reports whether the unit completed degraded: output exists but
// some windows or calibration records were lost to quarantine.
func (r Result) Partial() bool { return len(r.Quarantined) > 0 || r.CalSkipped > 0 }

// Chromosome states of an Outcome.
const (
	StateOK        = "ok"        // clean completion
	StatePartial   = "partial"   // output written, some windows or calibration records lost to quarantine
	StateFailed    = "failed"    // aborted after exhausting retries
	StateCancelled = "cancelled" // never ran: the job was cancelled first
)

// Outcome is one chromosome's outcome, the record both front-ends report:
// gsnpd streams it and lists it in the job status, and the CLI's failure
// report is filled from it. Classify is the only place one is judged.
type Outcome struct {
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	Sites int    `json:"sites,omitempty"`
	// Quarantined counts the windows quarantine mode contained.
	Quarantined int    `json:"quarantined,omitempty"`
	CalSkipped  int    `json:"cal_skipped,omitempty"`
	Attempts    int    `json:"attempts,omitempty"`
	WallMS      int64  `json:"wall_ms,omitempty"`
	Error       string `json:"error,omitempty"`
}

// Classify turns one chromosome's pool result into its Outcome: ok,
// partial, failed, or cancelled when it never ran. res is the unit's
// engine report, read only when the task succeeded.
func Classify[R any](r sched.Result[R], res Result) Outcome {
	o := Outcome{Name: r.Name, Attempts: r.Attempts, WallMS: r.Wall.Milliseconds()}
	switch {
	case r.Skipped:
		o.State, o.Error = StateCancelled, fmt.Sprint(r.Err)
	case r.Err != nil:
		o.State, o.Error = StateFailed, r.Err.Error()
	default:
		o.State, o.Sites = StateOK, res.Sites
		o.Quarantined, o.CalSkipped = len(res.Quarantined), res.CalSkipped
		if res.Partial() {
			o.State = StatePartial
		}
	}
	return o
}

// Report renders a pool result as the CLI's -failure-report entry, filled
// from its Outcome. The report keeps its own vocabulary: a chromosome that
// never ran is "skipped", its quarantined windows are listed rather than
// counted, and it names the output file a chromosome wrote and says whether
// the last attempt panicked.
func Report[R any](r sched.Result[R], res Result, output string) checkpoint.TaskReport {
	o := Classify(r, res)
	rep := checkpoint.TaskReport{
		Name: o.Name, Status: o.State, Sites: o.Sites, Attempts: o.Attempts,
		Error: o.Error, Panicked: r.Panicked, CalSkipped: o.CalSkipped,
	}
	switch o.State {
	case StateCancelled:
		rep.Status = checkpoint.StatusSkipped
	case StateOK, StatePartial:
		rep.Output, rep.Quarantined = output, res.Quarantined
	}
	return rep
}

// Policy is the fault-tolerance contract both front-ends run their
// chromosomes under: the pool keeps going past failures, task panics
// become errors, and everything is retried except permanent record-level
// corruption — reparsing the same bytes cannot succeed.
func Policy(retries int, backoff, timeout time.Duration) sched.Policy {
	return sched.Policy{
		Retries:         retries,
		Backoff:         backoff,
		Timeout:         timeout,
		RecoverPanics:   true,
		ContinueOnError: true,
		RetryIf: func(err error) bool {
			var re pipeline.RecordError
			return !errors.As(err, &re)
		},
	}
}

// Worker is what one whole-genome worker keeps from unit to unit (the
// paper's recycle, component 7, across chromosomes): the driver's scratch,
// the sparse kernel's arena, and the dense kernel, built on its first soapsnp
// unit. The zero value is ready; a Worker runs one unit at a time.
type Worker struct {
	scratch pipeline.Scratch
	arena   gsnp.Arena
	dense   *soapsnp.Engine
}

// Call runs one unit through the selected engine on the worker's storage,
// writing result rows to out and (with Options.Stats) diagnostics to diag.
func (w *Worker) Call(ctx context.Context, o Options, u Unit, out, diag io.Writer) (Result, error) {
	var zero Result
	refFile, err := os.Open(u.Ref)
	if err != nil {
		return zero, err
	}
	recs, err := snpio.ReadFASTA(refFile)
	if cerr := refFile.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return zero, err
	}
	if len(recs) != 1 {
		return zero, fmt.Errorf("reference must hold exactly one sequence, found %d", len(recs))
	}
	ref := recs[0]

	var known snpio.KnownSNPs
	if u.SNP != "" {
		f, err := os.Open(u.SNP)
		if err != nil {
			return zero, err
		}
		all, err := snpio.ReadKnownSNPs(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return zero, err
		}
		known = all[ref.Name]
	}

	// The pipeline reads its input twice (cal_p_matrix, then the windowed
	// pass); the source reopens the alignment file per pass. Files ending
	// in .gz are decompressed transparently. Raw FASTQ input is aligned
	// in-process instead: the k-mer index is built once per reference, the
	// reads are sharded across AlignWorkers, and the position-sorted
	// result is served from memory — both passes stream straight from the
	// aligner's output, with no intermediate alignment file on disk.
	var src pipeline.Source
	if o.Format == "fastq" {
		aligned, err := alignUnit(&o, ref.Seq, u.Aln)
		if err != nil {
			return zero, err
		}
		src = pipeline.MemSource(aligned)
	} else {
		src = pipeline.FuncSource(func() (pipeline.ReadIter, error) {
			f, err := os.Open(u.Aln)
			if err != nil {
				return nil, err
			}
			it := &fileIter{f: f}
			var r io.Reader = f
			if strings.HasSuffix(u.Aln, ".gz") {
				zr, err := gzip.NewReader(f)
				if err != nil {
					f.Close()
					return nil, err
				}
				it.zr = zr
				r = zr
			}
			if o.Format == "sam" {
				it.it = snpio.NewSAMReader(r)
			} else {
				it.it = snpio.NewSOAPReader(r)
			}
			return it, nil
		})
	}

	// Fault injection (testing): each chromosome is an injector stream, so
	// schedules are deterministic per chromosome regardless of worker
	// interleaving; the stream also provides the engine's window hook.
	var hook func(ctx context.Context, window, start, end int) error
	if o.Injector != nil {
		st := o.Injector.Stream(ref.Name)
		src = st.WrapSource(src)
		hook = st.WindowHook
	}

	// One engine run: the shared settings once, a window kernel picked by
	// engine name, the two-pass driver over both, all on the worker's
	// storage.
	cfg := pipeline.Config{
		Chr: ref.Name, Ref: ref.Seq, Known: known, Window: o.Window,
		Prefetch: o.Prefetch, Quarantine: o.Quarantine, WindowHook: hook,
		VCFOutput: o.VCF(), CompressOutput: o.Compress, Scratch: &w.scratch,
	}
	var kernel pipeline.Kernel
	var dev *gpu.Device
	defaultWindow := gsnp.DefaultWindow
	if o.Engine == "soapsnp" {
		if w.dense == nil {
			w.dense = soapsnp.New(soapsnp.Config{})
		}
		kernel, defaultWindow = w.dense, soapsnp.DefaultWindow
	} else {
		kc := gsnp.Config{Mode: gsnp.ModeCPU, ComputeWorkers: o.ComputeWorkers, Arena: &w.arena}
		if o.Engine == "gsnp-gpu" {
			// One device per call: units scheduled concurrently must not
			// share simulated-device state.
			dev = gpu.NewDevice(gpu.M2050())
			kc.Mode, kc.Device = gsnp.ModeGPU, dev
		}
		if kernel, err = gsnp.New(kc); err != nil {
			return zero, err
		}
	}
	if cfg.Window == 0 {
		cfg.Window = defaultWindow
	}
	rep, err := pipeline.Run(ctx, cfg, src, out, kernel)
	if err != nil {
		return zero, err
	}
	if o.Stats {
		fmt.Fprintf(diag, "%s: %d sites, %d SNPs, mean depth %.1fX, %d output bytes\n%v\n",
			o.Engine, rep.Sites, rep.SNPs, rep.MeanDepth, rep.OutputBytes, rep.Times)
		if o.Prefetch {
			fmt.Fprintf(diag, "prefetch: %v\n", rep.Prefetch)
		}
		if dev != nil {
			fmt.Fprintf(diag, "\nsimulated device profile (%s):\n%s",
				dev.Config().Name, dev.FormatProfile())
		}
	}
	return Result{Sites: rep.Sites, CalSkipped: rep.CalSkipped, Quarantined: rep.Quarantined}, nil
}

// alignUnit runs the alignment stage of a fastq unit: parse the raw
// reads, build the reference's k-mer seed index, and place every read,
// sharded across Options.AlignWorkers. The returned slice is
// position-sorted — exactly the order a SOAP input file would stream in —
// so the engines consume it unchanged. Alignment is a pure function of
// (reads, reference, parameters), so the output is byte-identical at
// every worker count.
func alignUnit(o *Options, ref dna.Sequence, fastqPath string) ([]reads.AlignedRead, error) {
	f, err := os.Open(fastqPath)
	if err != nil {
		return nil, err
	}
	var r io.Reader = f
	var zr *gzip.Reader
	if strings.HasSuffix(fastqPath, ".gz") {
		if zr, err = gzip.NewReader(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w", fastqPath, err)
		}
		r = zr
	}
	raws, err := snpio.ReadFASTQ(r)
	if zr != nil {
		if cerr := zr.Close(); err == nil {
			err = cerr
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fastqPath, err)
	}
	mm, k := o.alignParams()
	ix, err := align.BuildIndex(ref, k)
	if err != nil {
		return nil, err
	}
	return align.AlignReadsParallel(ix, raws, mm, o.AlignWorkers), nil
}

// fileIter adapts an alignment reader over an open file to
// pipeline.ReadIter, closing the decompressor (for .gz inputs) and the
// file when the stream ends — at EOF or on any stream-fatal read error, so
// an aborted pass doesn't leak the descriptor. Record-scoped parse errors
// leave the stream open: quarantine mode skips the record and keeps
// reading. A close failure surfaces instead of EOF so truncated gzip
// streams are reported rather than silently accepted.
type fileIter struct {
	f  *os.File
	zr *gzip.Reader
	it pipeline.ReadIter
}

func (it *fileIter) Next() (reads.AlignedRead, error) {
	r, err := it.it.Next()
	if err != nil && it.f != nil {
		var re pipeline.RecordError
		if errors.As(err, &re) {
			return r, err
		}
		if it.zr != nil {
			if cerr := it.zr.Close(); cerr != nil && err == io.EOF {
				err = cerr
			}
			it.zr = nil
		}
		if cerr := it.f.Close(); cerr != nil && err == io.EOF {
			err = cerr
		}
		it.f = nil
	}
	return r, err
}
