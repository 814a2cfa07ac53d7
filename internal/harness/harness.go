// Package harness drives the reproduction of every table and figure of the
// paper's evaluation (Section VI). Each experiment builds its scaled
// workload, runs the relevant engines and renders the same rows or series
// the paper reports, with notes comparing the measured shape against the
// published numbers.
//
// Data sets are scaled-down versions of the paper's 24-chromosome human
// genome (Section VI-A); scale is expressed in simulated sites per real
// megabase, so chr1 keeps its 247:47 size ratio to chr21. GPU work runs on
// the simulator: GPU times are simulated device seconds, CPU times are
// host wall-clock, and absolute magnitudes are therefore not comparable to
// the paper's testbed — the reproduced quantity is the shape (who wins,
// by roughly what factor, where crossovers fall).
package harness

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/gpu"
	"gsnp/internal/gsnp"
	"gsnp/internal/pipeline"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
	"gsnp/internal/soapsnp"
)

// Scale controls workload sizes.
type Scale struct {
	// SitesPerMb converts real chromosome megabases to simulated sites:
	// chr1 gets 247*SitesPerMb sites.
	SitesPerMb int
	// Seed drives all data generation.
	Seed int64
}

// DefaultScale is sized so the slowest experiment (the dense SOAPsnp
// baseline on chr1) completes in tens of seconds on a development machine.
func DefaultScale() Scale { return Scale{SitesPerMb: 250, Seed: 20110607} }

// Session caches datasets and baseline runs across the experiments of one
// invocation, since several figures reuse the chr1/chr21 workloads.
type Session struct {
	Scale Scale

	mu       sync.Mutex
	datasets map[string]*seqsim.Dataset
	soapRuns map[string]*soapRun
}

// soapRun caches a SOAPsnp execution.
type soapRun struct {
	report *pipeline.Report
	output []byte
}

// NewSession creates a session at the given scale.
func NewSession(sc Scale) *Session {
	if sc.SitesPerMb <= 0 {
		sc = DefaultScale()
	}
	return &Session{
		Scale:    sc,
		datasets: map[string]*seqsim.Dataset{},
		soapRuns: map[string]*soapRun{},
	}
}

// Dataset builds (or returns the cached) chromosome workload. Valid names
// are "chr1".."chr22", "chrX", "chrY".
func (s *Session) Dataset(name string) *seqsim.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ds, ok := s.datasets[name]; ok {
		return ds
	}
	for _, spec := range seqsim.ScaledHumanGenome(s.Scale.SitesPerMb, s.Scale.Seed) {
		if spec.Name == name {
			ds := seqsim.BuildDataset(spec)
			s.datasets[name] = ds
			return ds
		}
	}
	panic(fmt.Sprintf("harness: unknown chromosome %q", name))
}

// datasetAt builds a chromosome at a non-session scale (uncached).
func (s *Session) datasetAt(name string, sitesPerMb int) *seqsim.Dataset {
	for _, spec := range seqsim.ScaledHumanGenome(sitesPerMb, s.Scale.Seed) {
		if spec.Name == name {
			return seqsim.BuildDataset(spec)
		}
	}
	panic(fmt.Sprintf("harness: unknown chromosome %q", name))
}

// KnownSNPs derives the prior-file records of a dataset.
func KnownSNPs(ds *seqsim.Dataset) snpio.KnownSNPs {
	known := snpio.KnownSNPs{}
	for _, v := range ds.Diploid.Variants {
		if !v.Known {
			continue
		}
		a1, a2 := v.Genotype.Alleles()
		rec := &bayes.KnownSNP{Validated: true}
		rec.Freq[a1] += 0.5
		rec.Freq[a2] += 0.5
		known[v.Pos] = rec
	}
	return known
}

// RunSOAPsnp executes (or returns the cached) dense baseline for a
// dataset.
func (s *Session) RunSOAPsnp(name string) (*pipeline.Report, []byte) {
	s.mu.Lock()
	if r, ok := s.soapRuns[name]; ok {
		s.mu.Unlock()
		return r.report, r.output
	}
	s.mu.Unlock()

	rep, out := run(s.Dataset(name), pipeline.Config{Window: soapsnp.DefaultWindow}, soapsnp.New(soapsnp.Config{}))
	s.mu.Lock()
	s.soapRuns[name] = &soapRun{report: rep, output: out}
	s.mu.Unlock()
	return rep, out
}

// run is the harness's one way to start an engine run: the data set supplies
// the chromosome, reference, prior file and reads, cfg the rest of the shared
// settings — the window included, the engine's DefaultWindow where the
// experiment does not vary it — and k computes the windows. Every input here
// is generated, so a failed run is a bug and panics.
func run(ds *seqsim.Dataset, cfg pipeline.Config, k pipeline.Kernel) (*pipeline.Report, []byte) {
	cfg.Chr, cfg.Ref, cfg.Known = ds.Spec.Name, ds.Ref.Seq, KnownSNPs(ds)
	var buf bytes.Buffer
	rep, err := pipeline.Run(context.Background(), cfg, pipeline.MemSource(ds.Reads), &buf, k)
	if err != nil {
		panic(fmt.Sprintf("harness: %T run on %s failed: %v", k, ds.Spec.Name, err))
	}
	return rep, buf.Bytes()
}

// GSNPOptions tweaks a GSNP run.
type GSNPOptions struct {
	Mode    gsnp.Mode
	Variant gsnp.Variant
	Sort    gsnp.SortMethod
	Window  int
	Output  pipeline.Codec
	Device  *gpu.Device
	// SortWorkers sets the CPU-mode likelihood_sort worker count. Zero
	// pins 1 — the paper's single-threaded GSNP_CPU configuration — so
	// the Figure 5/6, Table IV and Figure 12 comparisons keep their
	// shape; pass an explicit count to opt into host parallelism.
	SortWorkers int
	// ComputeWorkers sets the CPU-mode likelihood_comp/posterior worker
	// count, pinned to 1 on zero for the same reason as SortWorkers.
	ComputeWorkers int
}

// GSNPReport is what a GSNP run leaves behind: the driver's report and the
// device-side measurements read off the engine.
type GSNPReport struct {
	*pipeline.Report
	Device gsnp.Report
}

// RunGSNP executes a GSNP run over a dataset.
func (s *Session) RunGSNP(ds *seqsim.Dataset, opts GSNPOptions) (*GSNPReport, []byte) {
	dev := opts.Device
	if opts.Mode == gsnp.ModeGPU && dev == nil {
		dev = gpu.NewDevice(gpu.M2050())
	}
	sortWorkers := opts.SortWorkers
	if sortWorkers == 0 {
		sortWorkers = 1
	}
	computeWorkers := opts.ComputeWorkers
	if computeWorkers == 0 {
		computeWorkers = 1
	}
	window := opts.Window
	if window == 0 {
		window = gsnp.DefaultWindow
	}
	eng, err := gsnp.New(gsnp.Config{
		Mode:           opts.Mode,
		Device:         dev,
		Variant:        opts.Variant,
		Sort:           opts.Sort,
		SortWorkers:    sortWorkers,
		ComputeWorkers: computeWorkers,
	})
	if err != nil {
		panic(fmt.Sprintf("harness: gsnp config: %v", err))
	}
	rep, out := run(ds, pipeline.Config{Window: window, Output: opts.Output}, eng)
	return &GSNPReport{Report: rep, Device: eng.Report()}, out
}

// MeasureCPUBandwidth estimates the host's sequential memory read
// bandwidth in bytes/second (the B_cpu of Formula 1), by streaming over a
// touched buffer several times larger than the last-level cache. Every byte
// is loaded, a cache line per iteration into independent accumulators, so
// the loop waits on memory and not on its own arithmetic; it shares no code
// with the engine whose time Formula 1 is held against.
func MeasureCPUBandwidth() float64 {
	const size = 256 << 20
	buf := make([]uint64, size/8)
	for i := range buf {
		buf[i] = uint64(i)
	}
	var a0, a1, a2, a3 uint64
	start := time.Now()
	const passes = 4
	for p := 0; p < passes; p++ {
		for w := buf; len(w) >= 8; w = w[8:] {
			a0 |= w[0] | w[4]
			a1 |= w[1] | w[5]
			a2 |= w[2] | w[6]
			a3 |= w[3] | w[7]
		}
	}
	elapsed := time.Since(start).Seconds()
	if a0|a1|a2|a3 == 42 {
		fmt.Print("") // defeat dead-code elimination
	}
	return float64(size*passes) / elapsed
}

// seconds renders a duration in seconds with sensible precision.
func seconds(d time.Duration) string {
	s := d.Seconds()
	switch {
	case s >= 100:
		return fmt.Sprintf("%.0f", s)
	case s >= 1:
		return fmt.Sprintf("%.2f", s)
	default:
		return fmt.Sprintf("%.4f", s)
	}
}

// ratio renders a speedup factor.
func ratio(num, den float64) string {
	if den == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", num/den)
}
