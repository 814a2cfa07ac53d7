// Command bench is the GSNP benchmark: five named workloads, end-to-end
// metrics measured from outside the programs with tracing off, and
// per-layer metrics from a separate traced pass. README.md describes the
// workloads and metrics; BENCHMARK.json is the contract the PR driver
// holds it to.
//
//	bash bench/run.sh --workload W --seed N --seconds S --trace 0|1
//	bash bench/run.sh all [--seed N] [--runs R] [--seconds S] [--out FILE]
//	bash bench/run.sh compare old.json new.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// errUsage and errWorse end the command with their own exit codes.
var (
	errUsage = errors.New("usage")
	errWorse = errors.New("compare: at least one metric is worse")
)

func main() {
	switch err := run(os.Args[1:]); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	mode := ""
	if len(args) > 0 && (args[0] == "all" || args[0] == "compare") {
		mode, args = args[0], args[1:]
	}
	root, err := findRoot()
	if err != nil {
		return err
	}
	defs, err := loadContract(root)
	if err != nil {
		return err
	}
	if mode == "compare" {
		return compareMain(defs, args)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run, one of those BENCHMARK.json names")
	seed := fs.Int64("seed", 1, "every input is generated from this seed")
	seconds := fs.Float64("seconds", float64(defs.RunSeconds), "seconds of timed repetitions per run")
	trace := fs.Int("trace", 0, "1: the traced pass, which reports the per-layer metrics")
	workDir := fs.String("workdir", "", "scratch directory (default: a fresh one under .bench_build, removed on exit)")
	runs := fs.Int("runs", 1, "all: untraced runs per workload, on seeds seed..seed+runs-1")
	out := fs.String("out", "", "all: results file (default bench/out/results.json)")
	if err := fs.Parse(args); err != nil {
		return errUsage
	}

	// SIGINT and SIGTERM cancel ctx, which kills every child started with
	// it; the deferred cleanup then removes the scratch directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if mode == "" && !slices.Contains(defs.workloadNames(), *workload) {
		fmt.Fprintf(os.Stderr, "bench: --workload must be one of %v\n", defs.workloadNames())
		return errUsage
	}
	e, err := newEnv(root, defs, *workDir, os.Stderr)
	if err != nil {
		return err
	}
	defer e.cleanup()

	if mode == "all" {
		if *out == "" {
			*out = filepath.Join(root, "bench", "out", "results.json")
		}
		return runAll(ctx, e, *seed, *runs, *seconds, *out)
	}
	// Build before the clock starts: the first build in a checkout compiles
	// the standard library too. A failure of the layer tier to build is
	// reported, and survived, where its probes are run.
	if err := e.build(ctx); err != nil {
		return err
	}
	if *trace == 1 {
		_ = e.buildLayerprobe(ctx)
	}
	// The PR driver gives a run 180 s. A run that has not ended well before
	// that is stuck: cancelling ctx kills the children, and the run fails.
	ctx, cancel := context.WithTimeout(ctx, 150*time.Second)
	defer cancel()
	rec, err := runWorkload(ctx, e, *workload, *seed, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	printMetrics(os.Stderr, defs, rec)
	line, err := json.Marshal(rec.driverLine(defs))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// maxNotes is how many failure notes a run keeps; the counts are exact
// regardless.
const maxNotes = 20

// runWorkload makes one run of one workload in a scratch directory of its
// own and, when traced, writes bench/out/trace-<workload>.json.
func runWorkload(ctx context.Context, e *env, name string, seed int64, seconds float64, traced bool) (*runRecord, error) {
	sub, err := os.MkdirTemp(e.workDir, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(sub)
	we := *e
	we.workDir = sub
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	e.logf("== %s seed %d, %.0f s, trace %v", name, seed, seconds, traced)
	var res *runResult
	if name == serveMixed {
		res, err = runServe(ctx, &we, seed, seconds, tr)
	} else {
		for i := range batchWorkloads {
			if batchWorkloads[i].name == name {
				res, err = runBatch(ctx, &we, &batchWorkloads[i], seed, seconds, tr)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if res == nil {
		return nil, fmt.Errorf("%s: BENCHMARK.json names a workload the command does not have", name)
	}
	for i, note := range res.notes {
		if i == maxNotes {
			e.logf("FAILED ... and %d more", len(res.notes)-maxNotes)
			res.notes = res.notes[:maxNotes]
			break
		}
		e.logf("FAILED %s", note)
	}
	if traced {
		path := filepath.Join(e.root, "bench", "out", "trace-"+name+".json")
		if err := tr.write(path, name, seed); err != nil {
			return nil, err
		}
		e.logf("trace: bench/out/trace-%s.json", name)
	}
	return newRunRecord(e.defs, name, seed, seconds, traced, res)
}

// runAll is the whole benchmark in one command: every workload untraced on
// each of runs seeds, the results file written, and then one traced pass
// per workload appended to it.
func runAll(ctx context.Context, e *env, seed int64, runs int, seconds float64, out string) error {
	file := resultsFile{Host: readHost(e.root), Seed: seed, Seconds: seconds}
	pass := func(seed int64, traced bool) error {
		for _, name := range e.defs.workloadNames() {
			rec, err := runWorkload(ctx, e, name, seed, seconds, traced)
			if err != nil {
				return err
			}
			printMetrics(os.Stdout, e.defs, rec)
			file.Runs = append(file.Runs, rec)
		}
		return file.write(out)
	}
	for r := 0; r < runs; r++ {
		if err := pass(seed+int64(r), false); err != nil {
			return err
		}
	}
	if err := pass(seed, true); err != nil {
		return err
	}
	fmt.Printf("results: %s\n", out)
	return nil
}
