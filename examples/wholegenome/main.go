// Wholegenome: the paper's headline workload — SNP detection over all 24
// human chromosome data sets (Figure 12), scaled down, comparing the three
// engines: dense SOAPsnp on the CPU, the sparse algorithm on the CPU
// (GSNP_CPU), and the full GSNP pipeline on the simulated GPU.
//
// Chromosomes are independent, so they run on a bounded worker pool
// (-workers, default GOMAXPROCS); each task owns its own simulated device
// and the per-chromosome table prints in chromosome order regardless of
// completion order. The three engines must stay byte-identical per
// chromosome (Section IV-G) at every worker count.
//
//	go run ./examples/wholegenome [-scale 40] [-workers N]
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"

	"gsnp/internal/gpu"
	"gsnp/internal/gsnp"
	"gsnp/internal/harness"
	"gsnp/internal/pipeline"
	"gsnp/internal/sched"
	"gsnp/internal/seqsim"
	"gsnp/internal/soapsnp"
)

// chrTimes is one chromosome's result across the three engines.
type chrTimes struct {
	name           string
	sites          int
	soap, cpu, gpu float64 // engine-reported component totals, seconds
	snps           int64
}

func main() {
	scale := flag.Int("scale", 40, "sites per real megabase (the paper's data is ~1,000,000)")
	workers := flag.Int("workers", 0, "concurrent chromosomes (0 = GOMAXPROCS)")
	flag.Parse()

	var tasks []sched.Task[chrTimes, struct{}]
	for _, spec := range seqsim.ScaledHumanGenome(*scale, 7) {
		spec := spec
		tasks = append(tasks, sched.Task[chrTimes, struct{}]{
			Name: spec.Name,
			Run: func(ctx context.Context, _ struct{}) (chrTimes, error) {
				return runChromosome(ctx, spec)
			},
		})
	}
	results, stats, err := sched.Run(context.Background(), *workers, sched.Policy{}, nil, tasks)
	if err != nil {
		log.Fatal(err)
	}

	var totSoap, totCPU, totGPU float64
	var totalSNPs int64
	fmt.Printf("%-8s %10s %12s %12s %10s\n", "chrom", "sites", "SOAPsnp", "GSNP(GPU)", "speedup")
	for _, r := range results {
		c := r.Value
		totSoap += c.soap
		totCPU += c.cpu
		totGPU += c.gpu
		totalSNPs += c.snps
		fmt.Printf("%-8s %10d %11.2fs %11.3fs %9.0fx\n",
			c.name, c.sites, c.soap, c.gpu, c.soap/c.gpu)
	}
	fmt.Printf("\nwhole genome: SOAPsnp %.1fs, GSNP_CPU %.1fs, GSNP %.2fs — end-to-end speedup %.0fx (paper: >=40x)\n",
		totSoap, totCPU, totGPU, totSoap/totGPU)
	fmt.Printf("total SNPs called: %d\n", totalSNPs)
	fmt.Printf("scheduler: %d workers, wall %v, task time %v, speedup %.2fx\n",
		stats.Workers, stats.Wall.Round(1e6), stats.TaskWall.Round(1e6), stats.Speedup())
}

// runChromosome builds one chromosome's dataset and runs all three
// engines over it, checking the Section IV-G byte-identity requirement.
func runChromosome(ctx context.Context, spec seqsim.ChromosomeSpec) (chrTimes, error) {
	ds := seqsim.BuildDataset(spec)
	cfg := pipeline.Config{Chr: spec.Name, Ref: ds.Ref.Seq, Known: harness.KnownSNPs(ds)}
	src := pipeline.MemSource(ds.Reads)

	// Dense baseline.
	cfg.Window = soapsnp.DefaultWindow
	var b1 bytes.Buffer
	soapRep, err := pipeline.Run(ctx, cfg, src, &b1, soapsnp.New(soapsnp.Config{}))
	if err != nil {
		return chrTimes{}, err
	}

	// Sparse on the CPU.
	cfg.Window = gsnp.DefaultWindow
	cpuEng, err := gsnp.New(gsnp.Config{Mode: gsnp.ModeCPU})
	if err != nil {
		return chrTimes{}, err
	}
	var b2 bytes.Buffer
	cpuRep, err := pipeline.Run(ctx, cfg, src, &b2, cpuEng)
	if err != nil {
		return chrTimes{}, err
	}

	// Full GSNP on the simulated GPU with compressed output; the device is
	// task-local so concurrent chromosomes never share device state.
	cfg.Output = pipeline.CodecPacked
	gpuEng, err := gsnp.New(gsnp.Config{Mode: gsnp.ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	if err != nil {
		return chrTimes{}, err
	}
	var b3 bytes.Buffer
	gpuRep, err := pipeline.Run(ctx, cfg, src, &b3, gpuEng)
	if err != nil {
		return chrTimes{}, err
	}

	// The two text outputs must be byte-identical (Section IV-G).
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		return chrTimes{}, fmt.Errorf("%s: engine outputs diverge", spec.Name)
	}

	return chrTimes{
		name:  spec.Name,
		sites: len(ds.Ref.Seq),
		soap:  soapRep.Times.Total().Seconds(),
		cpu:   cpuRep.Times.Total().Seconds(),
		gpu:   gpuRep.Times.Total().Seconds(),
		snps:  gpuRep.SNPs,
	}, nil
}
