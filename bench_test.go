// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (Section VI). Each benchmark regenerates its experiment on a
// scaled synthetic workload and reports the paper's headline quantity as a
// custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. Larger (slower, higher-fidelity) runs:
//
//	go run ./cmd/gsnp-experiments -exp all -scale 250
package gsnp_test

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"gsnp/internal/gsnp"
	"gsnp/internal/harness"
	"gsnp/internal/pipeline"
	"gsnp/internal/sched"
	"gsnp/internal/seqsim"
)

// benchScale keeps every benchmark iteration in the seconds range; the
// dense SOAPsnp baseline dominates.
func benchScale() harness.Scale {
	sc := harness.DefaultScale()
	sc.SitesPerMb = 60
	return sc
}

// runExperiment executes one experiment per iteration on a fresh session
// (no cross-iteration caching) and returns the last result.
func runExperiment(b *testing.B, id string) *harness.Result {
	b.Helper()
	var res *harness.Result
	for i := 0; i < b.N; i++ {
		s := harness.NewSession(benchScale())
		r, err := s.Run(id)
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	return res
}

// metricFromNote extracts the first "<float>x" figure from a result note
// containing the given marker, for ReportMetric.
func metricFromNote(res *harness.Result, marker string) (float64, bool) {
	for _, n := range res.Notes {
		if !strings.Contains(n, marker) {
			continue
		}
		for _, f := range strings.Fields(n) {
			f = strings.TrimSuffix(f, ";")
			f = strings.TrimSuffix(f, ",")
			if v, err := strconv.ParseFloat(strings.TrimSuffix(f, "x"), 64); err == nil && strings.HasSuffix(f, "x") {
				return v, true
			}
		}
	}
	return 0, false
}

func BenchmarkTable1SOAPsnpComponents(b *testing.B) {
	runExperiment(b, "table1")
}

func BenchmarkTable2Datasets(b *testing.B) {
	runExperiment(b, "table2")
}

func BenchmarkTable3HardwareCounters(b *testing.B) {
	runExperiment(b, "table3")
}

func BenchmarkTable4GSNPComponents(b *testing.B) {
	res := runExperiment(b, "table4")
	if v, ok := metricFromNote(res, "total speedup"); ok {
		b.ReportMetric(v, "total-speedup-x")
	}
}

func BenchmarkFig4aMemoryAccessEstimate(b *testing.B) {
	runExperiment(b, "fig4a")
}

func BenchmarkFig4bSparsity(b *testing.B) {
	runExperiment(b, "fig4b")
}

func BenchmarkFig5LikelihoodRepresentations(b *testing.B) {
	runExperiment(b, "fig5")
}

func BenchmarkFig6SortVsComp(b *testing.B) {
	runExperiment(b, "fig6")
}

func BenchmarkFig7aBatchSortThroughput(b *testing.B) {
	runExperiment(b, "fig7a")
}

func BenchmarkFig7bMultipass(b *testing.B) {
	res := runExperiment(b, "fig7b")
	if v, ok := metricFromNote(res, "single pass"); ok {
		b.ReportMetric(v, "sp-padding-x")
	}
}

func BenchmarkFig8KernelOptimizations(b *testing.B) {
	runExperiment(b, "fig8")
}

func BenchmarkFig9OutputCompression(b *testing.B) {
	res := runExperiment(b, "fig9")
	if v, ok := metricFromNote(res, "size ratio"); ok {
		b.ReportMetric(v, "text-vs-gsnp-x")
	}
}

func BenchmarkFig10aDecompression(b *testing.B) {
	runExperiment(b, "fig10a")
}

func BenchmarkFig10bTempInput(b *testing.B) {
	runExperiment(b, "fig10b")
}

func BenchmarkFig11WindowSize(b *testing.B) {
	runExperiment(b, "fig11")
}

func BenchmarkFig12EndToEnd(b *testing.B) {
	res := runExperiment(b, "fig12")
	if v, ok := metricFromNote(res, "whole-genome total speedup"); ok {
		b.ReportMetric(v, "end-to-end-speedup-x")
	}
}

// Ablation benches: isolate the engine-level effects the design document
// calls out, without the experiment-harness framing.

// BenchmarkAblationDenseVsSparseCPU measures the representation change
// alone on the CPU (the GSNP_CPU vs SOAPsnp delta of Figure 5).
func BenchmarkAblationDenseVsSparseCPU(b *testing.B) {
	s := harness.NewSession(benchScale())
	ds := s.Dataset("chr21")
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s2 := harness.NewSession(benchScale())
			s2.RunSOAPsnp("chr21")
		}
	})
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.RunGSNP(ds, harness.GSNPOptions{Mode: gsnp.ModeCPU})
		}
	})
}

// BenchmarkAblationKernelVariants times the four likelihood_comp kernels
// back to back (the Figure 8 ablation at engine level).
func BenchmarkAblationKernelVariants(b *testing.B) {
	s := harness.NewSession(benchScale())
	ds := s.Dataset("chr21")
	for _, v := range []gsnp.Variant{gsnp.VariantBaseline, gsnp.VariantShared, gsnp.VariantNewTable, gsnp.VariantOptimized} {
		v := v
		b.Run(strings.ReplaceAll(v.String(), " ", "_"), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				rep, _ := s.RunGSNP(ds, harness.GSNPOptions{Mode: gsnp.ModeGPU, Variant: v})
				sim = rep.Times.LikeliComp.Seconds()
			}
			b.ReportMetric(sim*1e6, "sim-us/op")
		})
	}
}

// BenchmarkAblationSortMethods times the three likelihood_sort schemes
// (the Figure 7b ablation at engine level).
func BenchmarkAblationSortMethods(b *testing.B) {
	s := harness.NewSession(benchScale())
	ds := s.Dataset("chr21")
	for _, m := range []struct {
		name string
		m    gsnp.SortMethod
	}{{"multipass", gsnp.SortMultipass}, {"singlepass", gsnp.SortSinglePass}, {"noneq", gsnp.SortNonEq}} {
		m := m
		b.Run(m.name, func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				rep, _ := s.RunGSNP(ds, harness.GSNPOptions{Mode: gsnp.ModeGPU, Sort: m.m})
				sim = rep.Device.SortStats.SimSeconds
			}
			b.ReportMetric(sim*1e6, "sim-us/op")
		})
	}
}

// BenchmarkWholeGenomeParallel runs the scaled 24-chromosome set through
// the bounded worker-pool scheduler at 1 and 4 workers (gsnp-cpu engine),
// the whole-genome wall-clock the concurrent scheduler exists to improve.
// Datasets are built once outside the timed loop.
func BenchmarkWholeGenomeParallel(b *testing.B) {
	specs := seqsim.ScaledHumanGenome(benchScale().SitesPerMb, benchScale().Seed)
	s := harness.NewSession(benchScale())
	dss := make([]*seqsim.Dataset, len(specs))
	sites := 0
	for i, spec := range specs {
		dss[i] = seqsim.BuildDataset(spec)
		sites += len(dss[i].Ref.Seq)
	}
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				tasks := make([]sched.Task[int, struct{}], len(dss))
				for k, ds := range dss {
					ds := ds
					tasks[k] = sched.Task[int, struct{}]{
						Name: ds.Spec.Name,
						Run: func(ctx context.Context, _ struct{}) (int, error) {
							rep, _ := s.RunGSNP(ds, harness.GSNPOptions{Mode: gsnp.ModeCPU})
							return rep.Sites, nil
						},
					}
				}
				if _, _, err := sched.Run(context.Background(), workers, sched.Policy{}, nil, tasks); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sites)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Msites/s")
		})
	}
}

// BenchmarkAblationCompressedOutput compares text and compressed output
// paths end to end.
func BenchmarkAblationCompressedOutput(b *testing.B) {
	s := harness.NewSession(benchScale())
	ds := s.Dataset("chr21")
	for _, c := range []struct {
		name   string
		output pipeline.Codec
	}{{"text", pipeline.CodecRows}, {"compressed", pipeline.CodecPacked}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				rep, _ := s.RunGSNP(ds, harness.GSNPOptions{Mode: gsnp.ModeGPU, Output: c.output})
				bytes = rep.OutputBytes
			}
			b.ReportMetric(float64(bytes), "output-bytes")
		})
	}
}
