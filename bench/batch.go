package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Input sizes, in gsnp-gen's sites per real megabase. The sizing runs in
// README.md were made at 1000 (24 chromosomes, 3.08 M sites, 3-4 s per
// repetition); the PR driver allows about 30 s for a whole run, set-up
// and verification included, so the workloads run at 400: a repetition
// takes 1-1.7 s and a run of run_seconds holds seven or more of them. The
// 40 three-chromosome directories of serve-mixed are smaller still, so
// that set-up, 500 jobs and their verification fit the same time.
const (
	batchScale       = 400
	serveDirScale    = 300
	serveGenomeScale = 200
)

// serialFlags pin every worker count to 1: the single-threaded baseline of
// the same problem, and the reference the parallel outputs must equal.
// The CLI refuses -align-workers unless the input is FASTQ.
func (w *batchWorkload) serialFlags() []string {
	flags := []string{"-workers", "1", "-compute-workers", "1"}
	if w.alnExt == ".fq" {
		flags = append(flags, "-align-workers", "1")
	}
	return flags
}

// batchWorkload is one CLI workload: a child process per repetition, one
// at a time, every worker flag left at its default.
type batchWorkload struct {
	name      string
	genArgs   []string // gsnp-gen arguments after -out and -seed
	chr       string   // single-file mode: the chromosome; "" for -genome-dir mode
	engine    string
	extra     []string // further gsnp arguments
	alnExt    string   // input alignment extension
	outExt    string   // extension of the output files
	refEngine string   // engine whose output this one's must equal; "" = the serial run of the same engine
	vcf       bool     // outputs are VCF: parse them and score against .truth
	probes    []string // layerprobe probes of the layers this workload enters
}

var batchWorkloads = []batchWorkload{
	{name: "genome-soap-rows", genArgs: []string{"-genome", "-scale", fmt.Sprint(batchScale)},
		engine: "gsnp-cpu", alnExt: ".soap", outExt: ".result",
		probes: []string{"snpio.soap", "snpio.rows", "pipeline", "bayes", "sortnet.quicksort"}},
	{name: "genome-fastq-vcf", genArgs: []string{"-genome", "-fastq", "-scale", fmt.Sprint(batchScale)},
		engine: "gsnp-cpu", extra: []string{"-format", "fastq", "-output-format", "vcf"},
		alnExt: ".fq", outExt: ".vcf", vcf: true,
		probes: []string{"snpio.fastq", "snpio.vcf", "align", "pipeline", "bayes", "sortnet.quicksort"}},
	{name: "chr1-soap-packed-gpu", genArgs: []string{"-chr", "chr1", "-scale", fmt.Sprint(batchScale)},
		chr: "chr1", engine: "gsnp-gpu", extra: []string{"-compress"},
		alnExt: ".soap", outExt: ".gsnp", refEngine: "gsnp-cpu",
		probes: []string{"snpio.soap", "snpio.block", "pipeline", "bayes", "gpu", "compress"}},
	{name: "chr21-soap-rows-dense", genArgs: []string{"-chr", "chr21", "-scale", fmt.Sprint(batchScale)},
		chr: "chr21", engine: "soapsnp",
		alnExt: ".soap", outExt: ".result", refEngine: "gsnp-cpu",
		probes: []string{"snpio.soap", "snpio.rows", "pipeline", "bayes"}},
}

// args builds the gsnp command line for engine over the inputs in dir.
func (w *batchWorkload) args(dir, engine string) []string {
	var a []string
	if w.chr == "" {
		a = []string{"-genome-dir", dir}
	} else {
		a = []string{"-ref", filepath.Join(dir, w.chr+".fa"), "-aln", filepath.Join(dir, w.chr+w.alnExt),
			"-out", filepath.Join(dir, w.chr+w.outExt)}
	}
	return append(append(a, "-engine", engine), w.extra...)
}

// outputs lists the result files of the last run, sorted.
func (w *batchWorkload) outputs(dir string) []string {
	files, _ := filepath.Glob(filepath.Join(dir, "*"+w.outExt))
	sort.Strings(files)
	return files
}

// clean removes what a run leaves behind, so every repetition creates its
// files anew and none resumes from a checkpoint.
func (w *batchWorkload) clean(dir string) {
	for _, f := range w.outputs(dir) {
		os.Remove(f)
	}
	os.Remove(filepath.Join(dir, ".gsnp.checkpoint.json"))
}

// checkOutputs digests files and compares them with want (file name →
// sha256). With want nil it only digests. A missing, unreadable or
// differing file is one failure each, as is a wanted file that is absent.
func checkOutputs(files []string, want map[string]string) (got map[string]string, bytes int64, failures []string) {
	got = make(map[string]string)
	for _, f := range files {
		name := filepath.Base(f)
		sum, n, err := digestFile(f)
		if err != nil {
			failures = append(failures, fmt.Sprintf("%s: %v", name, err))
			continue
		}
		got[name] = sum
		bytes += n
		if want != nil && want[name] != sum {
			failures = append(failures, fmt.Sprintf("%s: sha256 %.12s, reference has %.12s", name, sum, want[name]))
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			failures = append(failures, fmt.Sprintf("%s: output missing", name))
		}
	}
	sort.Strings(failures)
	return got, bytes, failures
}

// tally counts verified units across a workload's runs.
type tally struct {
	attempted, failed int
	notes             []string
}

func (t *tally) add(attempted int, failures []string) {
	t.attempted += attempted
	t.failed += min(len(failures), attempted)
	t.notes = append(t.notes, failures...)
}

func (t *tally) fail(format string, args ...any) {
	t.attempted++
	t.failed++
	t.notes = append(t.notes, fmt.Sprintf(format, args...))
}

// runResult is what one run of one workload produced.
type runResult struct {
	tally
	metrics map[string]float64
	counts  map[string]int // sample count behind a metric, where it has one
}

func newRunResult() *runResult {
	return &runResult{metrics: make(map[string]float64), counts: make(map[string]int)}
}

func (r *runResult) set(name string, v float64, n int) {
	r.metrics[name] = v
	r.counts[name] = n
}

// setupReps is how many times an untraced run sets up. The issue wanted
// setup_s reported and not gated, which one set-up would serve; the PR
// driver gates it all the same (a later change is rejected when the median
// over its runs worsens by more than the bound) and asks for the median of
// several set-ups per run; single set-ups of one run differ by up to 45 %
// on this host. Three is the fewest that have a median, and the two extra
// ones cost 0.3-3 s of a 15-22 s run.
const setupReps = 3

// setUp builds the programs and generates the workload's inputs, reps
// times into fresh directories, keeping the last. It returns the kept
// directory and the median seconds of one set-up.
func setUp(ctx context.Context, e *env, reps int, generate func(dir string) error) (string, float64, error) {
	var times []float64
	dir := ""
	for i := 0; i < reps; i++ {
		if dir != "" {
			os.RemoveAll(dir)
		}
		dir = filepath.Join(e.workDir, fmt.Sprintf("in%d", i))
		start := time.Now()
		if err := e.build(ctx); err != nil {
			return "", 0, err
		}
		if err := generate(dir); err != nil {
			return "", 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	e.logf("set-up: %d times, %.3fs each (median %.3fs)", reps, times, median(times))
	return dir, median(times), nil
}

// runBatch measures one batch workload for about seconds seconds: one
// reference run, one discarded warm-up (the first run pays for creating
// the output files), then timed
// repetitions until the time is used, three at least. With tr set, every
// other repetition runs with -stats and a serial -stats run supplies the
// stage rows.
func runBatch(ctx context.Context, e *env, w *batchWorkload, seed int64, seconds float64, tr *tracer) (*runResult, error) {
	res := newRunResult()
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	dir, setupS, err := setUp(ctx, e, reps, func(dir string) error { return e.gen(ctx, dir, seed, w.genArgs...) })
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS, reps)

	// run executes gsnp once and verifies its outputs against want.
	var want map[string]string
	var outBytes int64
	run := func(label string, args []string) (childRun, error) {
		w.clean(dir)
		cr, err := runChild(ctx, e.bin("gsnp"), args...)
		if err != nil {
			return cr, err
		}
		got, n, failures := checkOutputs(w.outputs(dir), want)
		if cr.Exit != 0 {
			failures = append(failures, fmt.Sprintf("exit %d: %s", cr.Exit, lastLine(cr.Stderr)))
		}
		if want == nil {
			want = got
		}
		outBytes = n
		res.add(max(len(want), 1), prefix(label, failures))
		e.logf("%-10s wall %.3fs cpu %.3fs rss %.0f MB, %d outputs, %d failed", label, cr.Wall, cr.CPU, cr.RSSMB, len(got), len(failures))
		return cr, nil
	}

	if w.refEngine != "" {
		if _, err := run("reference", w.args(dir, w.refEngine)); err != nil {
			return nil, err
		}
	}
	var serial childRun
	if tr != nil || w.refEngine == "" {
		args := append(w.args(dir, w.engine), w.serialFlags()...)
		if tr != nil {
			args = append(args, "-stats")
		}
		if serial, err = run("serial", args); err != nil {
			return nil, err
		}
	}
	if _, err := run("warm-up", w.args(dir, w.engine)); err != nil {
		return nil, err
	}

	var plain, traced []childRun
	begin := time.Now()
	for i := 0; time.Since(begin).Seconds() < seconds || len(plain) < 3; i++ {
		args, label, into := w.args(dir, w.engine), "rep", &plain
		if tr != nil && i%2 == 1 {
			args, label, into = append(args, "-stats"), "rep-stats", &traced
		}
		cr, err := run(label, args)
		if err != nil {
			return nil, err
		}
		*into = append(*into, cr)
	}
	if w.vcf {
		scoreVCFs(res, dir, w.outputs(dir))
	}

	walls := pick(plain, func(c childRun) float64 { return c.Wall })
	wall := undisturbed(walls)
	res.set("wall_s", wall, len(walls))
	res.set("cpu_s", undisturbed(pick(plain, func(c childRun) float64 { return c.CPU })), len(plain))
	res.set("peak_rss_mb", median(pick(plain, func(c childRun) float64 { return c.RSSMB })), len(plain))
	res.set("output_mb", float64(outBytes)/1e6, 1)
	if tr != nil {
		if err := batchLayers(ctx, e, w, seed, dir, res, tr, serial, wall, traced); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func pick(runs []childRun, f func(childRun) float64) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = f(r)
	}
	return out
}

func prefix(label string, msgs []string) []string {
	for i := range msgs {
		msgs[i] = label + ": " + msgs[i]
	}
	return msgs
}

func lastLine(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return lines[len(lines)-1]
}
