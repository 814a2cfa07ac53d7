// Command gsnp calls SNPs from an alignment file, a FASTA reference and an
// optional known-SNP prior file — the command-line equivalent of SOAPsnp,
// with three engines:
//
//	-engine soapsnp    the dense CPU baseline (Algorithms 1-2 of the paper)
//	-engine gsnp-cpu   the sparse algorithm on the CPU (GSNP_CPU)
//	-engine gsnp-gpu   the full GSNP pipeline on the simulated GPU
//
// Usage:
//
//	gsnp -ref ref.fa -aln reads.soap [-snp known.snp] -out result.txt \
//	     [-engine gsnp-gpu] [-format soap|sam|fastq] [-window N] [-compress] [-stats]
//
// With -format fastq the input is raw sequencer reads: the built-in
// k-mer aligner places them against the reference in-process (sharded
// across -align-workers, tunable with -align-mm/-align-k) and streams the
// position-sorted result straight into windowed calling — no intermediate
// alignment file. Combined with -output-format vcf this is the complete
// raw-reads-to-variants pipeline:
//
//	gsnp -ref chr21.fa -aln chr21.fq -format fastq -output-format vcf -out chr21.vcf
//
// Whole-genome mode processes a directory of per-chromosome files (the
// production layout of the paper's evaluation: 24 separate sequence
// files), calling each <name>.fa against <name>.soap (+ optional
// <name>.snp) and writing <name>.result[.gsnp]. Chromosomes run on a
// bounded worker pool (-workers, default GOMAXPROCS); every chromosome is
// independent, so the result files are byte-identical at any worker count.
// With -format fastq the pairs are <name>.fa/<name>.fq and each
// chromosome is aligned before calling; with -output-format vcf the
// output files are <name>.vcf:
//
//	gsnp -genome-dir data/ [-engine gsnp-gpu] [-workers N] [-compress] [-stats]
//
// A single-file run is a genome run of one chromosome. Long runs degrade
// instead of dying: each chromosome reports its own outcome, and the exit
// code is 0 when all are clean, 2 when usable output sits beside failed or
// partial chromosomes, and 1 when none left usable output (one skipped by
// -resume counts as usable) or the flags are bad. The fault-tolerance
// flags (only -resume needs -genome-dir):
//
//	-retries N          re-run a failed chromosome up to N times with
//	                    exponential backoff (-retry-backoff, default 100ms)
//	-task-timeout D     per-chromosome deadline; a wedged chromosome is
//	                    cut short and counted as failed
//	-quarantine         contain malformed records and panicking windows:
//	                    the affected window is skipped and recorded, the
//	                    chromosome completes with the rest of its output
//	-resume             skip chromosomes already recorded in the genome
//	                    directory's checkpoint manifest (written after
//	                    every clean completion, validated by output digest)
//	-failure-report F   write a machine-readable JSON report of every
//	                    chromosome's outcome, including quarantined windows
//	-faults SPEC        inject deterministic failures (testing; see
//	                    internal/faults)
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gsnp/internal/checkpoint"
	"gsnp/internal/faults"
	"gsnp/internal/genomejob"
	"gsnp/internal/pipeline"
	"gsnp/internal/sched"
)

// options carries the parsed command line. The engine configuration lives
// in genomejob.Options — the decomposition/dispatch package shared with
// the gsnpd service — so the CLI and the server run one code path.
type options struct {
	call    genomejob.Options
	workers int
	stats   bool

	retries       int
	retryBackoff  time.Duration
	taskTimeout   time.Duration
	resume        bool
	failureReport string
}

// errPartial marks a run that produced usable output alongside failures:
// quarantined windows, failed chromosomes among successful ones. It maps
// to exit code 2, distinct from fatal errors (exit code 1).
var errPartial = errors.New("partial results")

func main() {
	err := run()
	switch {
	case err == nil:
	case errors.Is(err, errPartial):
		fmt.Fprintln(os.Stderr, "gsnp:", err)
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "gsnp:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		refPath   = flag.String("ref", "", "reference FASTA file")
		alnPath   = flag.String("aln", "", "alignment file (or raw FASTQ reads with -format fastq)")
		format    = flag.String("format", "soap", "input format: soap, sam or fastq (raw reads, aligned in-process)")
		snpPath   = flag.String("snp", "", "known-SNP prior file (optional)")
		outPath   = flag.String("out", "", "output file ('-' or empty for stdout)")
		genomeDir = flag.String("genome-dir", "", "process every <chr>.fa/<chr>.soap pair in a directory")
		engine    = flag.String("engine", "gsnp-gpu", "engine: soapsnp, gsnp-cpu or gsnp-gpu")
		window    = flag.Int("window", 0, "sites per window (0 = engine default)")
		workers   = flag.Int("workers", 0, "concurrent chromosomes in -genome-dir mode (0 = GOMAXPROCS)")
		computeW  = flag.Int("compute-workers", 0, "site-parallel likelihood/posterior workers per window (gsnp-cpu; 0 = GOMAXPROCS)")
		compress  = flag.Bool("compress", false, "write the GSNP compressed container (gsnp engines only)")
		stats     = flag.Bool("stats", false, "print per-component timing to stderr")
		outFormat = flag.String("output-format", "", "result codec: rows (default, the 17-column table) or vcf")
		alignMM   = flag.Int("align-mm", 0, "aligner mismatch budget per read (-format fastq; 0 = default 2)")
		alignK    = flag.Int("align-k", 0, "aligner k-mer seed length (-format fastq; 0 = default 16, max 31)")
		alignW    = flag.Int("align-workers", 0, "alignment-stage workers per chromosome (-format fastq; 0 = GOMAXPROCS)")

		retries    = flag.Int("retries", 0, "re-run a failed chromosome up to N times (exponential backoff)")
		backoff    = flag.Duration("retry-backoff", 100*time.Millisecond, "base delay between retries of a failed chromosome")
		taskTO     = flag.Duration("task-timeout", 0, "per-chromosome deadline (0 = none)")
		quarantine = flag.Bool("quarantine", false, "contain malformed records and panicking windows instead of aborting")
		resume     = flag.Bool("resume", false, "skip chromosomes recorded in the genome directory's checkpoint manifest (-genome-dir only)")
		failReport = flag.String("failure-report", "", "write a JSON report of per-chromosome outcomes to this file")
		faultSpec  = flag.String("faults", "", "inject deterministic failures, e.g. seed=1,corrupt-every=40 (testing)")
	)
	flag.Parse()

	opts := options{
		call: genomejob.Options{
			Engine: *engine, Format: *format, Window: *window,
			ComputeWorkers: *computeW, Compress: *compress, Quarantine: *quarantine,
			OutputFormat:     *outFormat,
			AlignMaxMismatch: *alignMM, AlignSeedLen: *alignK, AlignWorkers: *alignW,
		},
		workers: *workers, stats: *stats,
		retries: *retries, retryBackoff: *backoff, taskTimeout: *taskTO,
		resume: *resume, failureReport: *failReport,
	}
	if *faultSpec != "" {
		inj, err := faults.Parse(*faultSpec)
		if err != nil {
			return err
		}
		opts.call.Injector = inj
	}
	if err := opts.call.Validate(); err != nil {
		return err
	}

	var units []genomejob.Unit
	if *genomeDir != "" {
		var skipped []genomejob.Skipped
		var err error
		if units, skipped, err = genomejob.Discover(*genomeDir, opts.call); err != nil {
			return err
		}
		for _, sk := range skipped {
			fmt.Fprintf(os.Stderr, "gsnp: skipping %s: no alignment file %s\n", sk.Ref, sk.Aln)
		}
	} else {
		switch {
		case opts.resume:
			return errors.New("-resume requires -genome-dir")
		case *refPath == "" || *alnPath == "":
			flag.Usage()
			return fmt.Errorf("-ref and -aln are required (or use -genome-dir)")
		}
		out := *outPath
		if out == "" {
			out = "-"
		}
		units = []genomejob.Unit{{Name: filepath.Base(*refPath), Ref: *refPath, Aln: *alnPath, SNP: *snpPath, OutPath: out}}
	}
	return runUnits(*genomeDir, units, opts)
}

// chrOutput is one chromosome's result: its engine report and its
// buffered -stats diagnostics, printed in input order.
type chrOutput struct {
	diag string
	rep  *pipeline.Report
}

// runUnits runs chromosomes — every one of a genome directory (the
// 24-file production layout of the paper), or the one of a single-file run
// (dir "") — on a bounded worker pool. Each task owns its own output (an
// OutPath of "-" is stdout) and, for gsnp-gpu, its own simulated device,
// so chromosomes never share mutable state and the result files are
// byte-identical to a serial run. Diagnostics are buffered per chromosome
// and printed in input order once the pool drains, keeping terminal
// output deterministic at any worker count.
//
// A failing chromosome does not discard the others: the pool runs every
// task, a failed one leaves no output file behind, each chromosome's
// outcome is reported individually (and in the -failure-report JSON), and
// with a genome directory clean completions are checkpointed for -resume.
// The run returns errPartial (exit code 2) when usable output coexists
// with failures, and a plain error (exit code 1) when nothing usable is
// left.
func runUnits(dir string, units []genomejob.Unit, opts options) error {
	fingerprint := opts.call.Fingerprint()
	var cp *checkpoint.Writer
	if dir != "" {
		var err error
		if cp, err = checkpoint.NewWriter(checkpoint.Path(dir), fingerprint, opts.resume); err != nil {
			return err
		}
	}

	// reports[i] is units[i]'s report entry and taskUnit[j] the unit of
	// tasks[j]; checkpoint-skipped chromosomes get their entry up front and
	// never enter the pool.
	reports := make([]checkpoint.TaskReport, len(units))
	var taskUnit []int
	// printed counts what the run writes to stdout, which only a
	// single-file run without -out does (at most one unit).
	var printed stdout
	var tasks []sched.Task[chrOutput, *genomejob.Worker]
	for i, unit := range units {
		name := unit.Name
		if cp != nil {
			if e, ok := cp.Done(name); ok {
				fmt.Fprintf(os.Stderr, "gsnp: %s: skipped (checkpoint: %s)\n", name, e.Output)
				reports[i] = checkpoint.TaskReport{
					Name: name, Status: checkpoint.StatusSkipped, Output: e.Output, Sites: e.Sites}
				continue
			}
		}
		taskUnit = append(taskUnit, i)
		unit := unit
		tasks = append(tasks, sched.Task[chrOutput, *genomejob.Worker]{
			Name: name,
			Run: func(ctx context.Context, wk *genomejob.Worker) (out chrOutput, err error) {
				var diag strings.Builder
				var diagW io.Writer // nil: no diagnostics
				if opts.stats {
					diagW = &diag
				}
				var digest string
				if unit.OutPath == "-" {
					out.rep, err = wk.Call(ctx, opts.call, unit, &printed, diagW)
				} else {
					out.rep, digest, err = callToFile(ctx, wk, opts.call, unit, diagW)
				}
				out.diag = diag.String()
				// Degraded completions stay on disk but are never
				// checkpointed, so -resume recomputes them.
				if err == nil && cp != nil && !out.rep.Partial() {
					err = cp.CompleteDigest(name, unit.OutPath, digest, out.rep.Sites)
				}
				return out, err
			},
		})
	}

	// One genomejob.Worker per pool worker: every chromosome a worker runs
	// recycles the same storage (outputs are unaffected — the worker only
	// carries buffer capacity and a dense kernel between runs).
	pol := genomejob.Policy(opts.retries, opts.retryBackoff, opts.taskTimeout)
	// What a failed attempt printed cannot be taken back: after that,
	// nothing is retried.
	retryIf := pol.RetryIf
	pol.RetryIf = func(err error) bool { return printed == 0 && retryIf(err) }
	results, stats, _ := sched.Run(context.Background(), opts.workers, pol,
		func(int) *genomejob.Worker { return new(genomejob.Worker) }, tasks)

	var okN, partialN, failedN, quarantinedN int
	for i, r := range results {
		u := taskUnit[i]
		rep := genomejob.Report(r, r.Value.rep, filepath.Base(units[u].OutPath))
		reports[u] = rep
		switch rep.Status {
		case checkpoint.StatusFailed, checkpoint.StatusSkipped: // skipped: never ran
			failedN++
			fmt.Fprintf(os.Stderr, "gsnp: %s: FAILED after %d attempt(s): %s\n", rep.Name, rep.Attempts, rep.Error)
			continue
		case checkpoint.StatusPartial:
			partialN++
		default:
			okN++
		}
		fmt.Fprint(os.Stderr, r.Value.diag)
		line := fmt.Sprintf("gsnp: %s -> %s", rep.Name, rep.Output)
		quarantinedN += len(rep.Quarantined)
		if rep.Status == checkpoint.StatusPartial {
			line += fmt.Sprintf(" [PARTIAL: %d window(s) quarantined, %d calibration record(s) skipped]",
				len(rep.Quarantined), rep.CalSkipped)
			for _, q := range rep.Quarantined {
				fmt.Fprintf(os.Stderr, "gsnp: quarantined %v\n", q)
			}
		}
		if opts.stats {
			line += fmt.Sprintf(" (worker %d, %v, %s)",
				r.Worker, r.Wall.Round(time.Millisecond), siteRate(rep.Sites, r.Wall))
		}
		fmt.Fprintln(os.Stderr, line)
	}
	if opts.stats {
		fmt.Fprintf(os.Stderr, "gsnp: scheduler: %d workers ran %d chromosomes in %v (task time %v, speedup %.2fx, longest %s %v)\n",
			stats.Workers, stats.Ran, stats.Wall.Round(time.Millisecond),
			stats.TaskWall.Round(time.Millisecond), stats.Speedup(),
			stats.LongestName, stats.Longest.Round(time.Millisecond))
	}

	// Checkpoint-skipped chromosomes are usable: their outputs are on disk.
	usable := okN + partialN + len(units) - len(tasks)
	summary := fmt.Sprintf("%d ok, %d partial, %d failed (%d window(s) quarantined)",
		okN, partialN, failedN, quarantinedN)
	code, runErr := 0, error(nil)
	switch {
	case failedN == 0 && partialN == 0:
	case usable > 0:
		code, runErr = 2, fmt.Errorf("%w: %s", errPartial, summary)
	default:
		code, runErr = 1, fmt.Errorf("no usable output: %s", summary)
	}
	if opts.failureReport != "" {
		fr := &checkpoint.FailureReport{Fingerprint: fingerprint, ExitCode: code, Tasks: reports}
		if err := fr.Save(opts.failureReport); err != nil {
			return fmt.Errorf("failure report: %w", err)
		}
	}
	return runErr
}

// callToFile runs one attempt of a unit into its output file and returns,
// with the report, the file's checkpoint digest: the bytes are hashed as
// they are written, inside the output stage, so the manifest need not read
// the file back. A failed or panicking attempt leaves no half-written file
// behind: a retry or a later -resume recomputes the chromosome from
// scratch.
func callToFile(ctx context.Context, wk *genomejob.Worker, o genomejob.Options, u genomejob.Unit, diag io.Writer) (rep *pipeline.Report, digest string, err error) {
	f, err := os.Create(u.OutPath)
	if err != nil {
		return nil, "", err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil || rep == nil { // rep is nil while a panic unwinds
			os.Remove(u.OutPath)
		}
	}()
	h := sha256.New()
	if rep, err = wk.Call(ctx, o, u, io.MultiWriter(f, h), diag); err != nil {
		return nil, "", err
	}
	return rep, hex.EncodeToString(h.Sum(nil)), nil
}

// stdout counts the bytes a unit writes to standard output.
type stdout int64

func (n *stdout) Write(p []byte) (int, error) {
	k, err := os.Stdout.Write(p)
	*n += stdout(k)
	return k, err
}

// siteRate formats a sites-per-second throughput.
func siteRate(sites int, wall time.Duration) string {
	if wall <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2f Msites/s", float64(sites)/wall.Seconds()/1e6)
}
