package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// env is what every workload shares: where the checkout is, where the
// built programs are, and the scratch directory the inputs live in.
type env struct {
	root    string // checkout root: the directory holding BENCHMARK.json
	defs    *contract
	binDir  string // <root>/.bench_build/bin
	workDir string // scratch for inputs, outputs and journals; removed on exit
	log     io.Writer
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json, so the command works from the root and from bench/
// (`go run -C bench .` starts the program there).
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json above the working directory")
		}
		dir = parent
	}
}

// newEnv creates the scratch directory. Everything the benchmark writes
// stays inside the checkout: build products and scratch under
// .bench_build, reports under bench/out.
func newEnv(root string, defs *contract, workDir string, log io.Writer) (*env, error) {
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(filepath.Join(build, "bin"), 0o755); err != nil {
		return nil, err
	}
	var err error
	if workDir == "" {
		workDir, err = os.MkdirTemp(build, "work-")
	} else {
		err = os.MkdirAll(workDir, 0o755)
	}
	if err != nil {
		return nil, err
	}
	return &env{root: root, defs: defs, binDir: filepath.Join(build, "bin"), workDir: workDir, log: log}, nil
}

func (e *env) cleanup() { os.RemoveAll(e.workDir) }

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

func (e *env) bin(name string) string { return filepath.Join(e.binDir, name) }

// build compiles the three programs under test from the checkout's source.
// After the first time it is a cache check.
func (e *env) build(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.binDir+string(os.PathSeparator),
		"./cmd/gsnp", "./cmd/gsnpd", "./cmd/gsnp-gen")
	cmd.Dir = e.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build: %w\n%s", err, out)
	}
	return nil
}

// buildLayerprobe compiles the layer tier. It is the only part of the
// benchmark that imports the program's packages, so it is the only part a
// refactor of their APIs can stop from building.
func (e *env) buildLayerprobe(ctx context.Context) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", e.bin("layerprobe"), ".")
	cmd.Dir = filepath.Join(e.root, "bench", "layerprobe")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build layerprobe: %w\n%s", err, out)
	}
	return nil
}

// gen runs gsnp-gen once.
func (e *env) gen(ctx context.Context, out string, seed int64, args ...string) error {
	full := append([]string{"-out", out, "-seed", fmt.Sprint(seed)}, args...)
	cmd := exec.CommandContext(ctx, e.bin("gsnp-gen"), full...)
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("gsnp-gen %s: %w\n%s", strings.Join(full, " "), err, msg)
	}
	return nil
}

// childRun is what the benchmark sees of one child process from outside.
type childRun struct {
	Wall   float64 // seconds, exec to exit
	CPU    float64 // user+system seconds
	RSSMB  float64 // max resident set
	Exit   int
	Stderr string
	Start  time.Time
	End    time.Time
}

func usage(ps *os.ProcessState) (cpu, rssMB float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runChild runs one program to completion. A non-zero exit is reported in
// Exit, not as an error; err is for a program that could not be started.
func runChild(ctx context.Context, bin string, args ...string) (childRun, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	end := time.Now()
	if cmd.ProcessState == nil {
		return childRun{}, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	r := childRun{Wall: end.Sub(start).Seconds(), Exit: cmd.ProcessState.ExitCode(),
		Stderr: stderr.String(), Start: start, End: end}
	r.CPU, r.RSSMB = usage(cmd.ProcessState)
	return r, ctx.Err()
}

// digestFile is the sha256 and size of one file.
func digestFile(path string) (string, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", 0, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return "", 0, err
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// hostInfo is recorded with every result so a number can be read against
// the machine that produced it.
type hostInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func readHost(root string) hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown"}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The PR driver's checkout is not a git repository; the commit is then
	// unknown and the numbers are identified by the run that made them.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}
