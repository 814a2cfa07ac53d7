package gsnp

import (
	"bytes"
	"context"
	"io"
	"math/rand/v2"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
	"gsnp/internal/seqsim"
)

func benchDataset(b *testing.B, sites int) *seqsim.Dataset {
	b.Helper()
	return seqsim.BuildDataset(seqsim.ChromosomeSpec{
		Name: "chrB", Length: sites, Depth: 10, MaskFraction: 0.1, Seed: 7,
	})
}

// benchEngine times whole runs at the paper's window size, a fresh engine
// each iteration.
func benchEngine(b *testing.B, run pipeline.Config, cfg func() Config) {
	ds := benchDataset(b, 20000)
	run.Window = DefaultWindow
	b.SetBytes(int64(ds.Spec.Length))
	for i := 0; i < b.N; i++ {
		eng, err := New(cfg())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := startRun(context.Background(), eng, ds, run, pipeline.MemSource(ds.Reads), new(bytes.Buffer)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineCPU(b *testing.B) {
	benchEngine(b, pipeline.Config{}, func() Config { return Config{Mode: ModeCPU} })
}

func gpuConfig() Config { return Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())} }

func BenchmarkEngineGPU(b *testing.B) { benchEngine(b, pipeline.Config{}, gpuConfig) }

func BenchmarkEngineGPUCompressed(b *testing.B) {
	benchEngine(b, pipeline.Config{Output: pipeline.CodecPacked}, gpuConfig)
}

func BenchmarkSparseLikelihoodCPUWindow(b *testing.B) {
	ds := benchDataset(b, 10000)
	eng, err := New(Config{Mode: ModeCPU})
	if err != nil {
		b.Fatal(err)
	}
	eng.tables = testTables()
	eng.run = directRun(ds, 10000, io.Discard)
	w := buildTestWindow(ds, 10000)
	eng.countCPU(w)
	sortWindowWords(w)
	b.SetBytes(int64(len(w.words.Data) * 4))
	for i := 0; i < b.N; i++ {
		eng.likelihoodCompCPU(w)
	}
}

// BenchmarkCountGPU times countGPU over one 65,536-site window at depth 10
// and reports its simulated device time: the host's simulation in ns/op,
// the modelled device (launches and copies) in sim_us/op. A site's gather
// scans the runs whose first site lies in (s-maxExtent, s], about depth ×
// longest read / mean read long, so the reads come in two layouts of equal
// depth: uniform 100-base reads, as seqsim draws them, and lengths drawn
// uniformly from 36-256 bases, where the scan is about 1.75 times depth.
func BenchmarkCountGPU(b *testing.B) {
	const n, depth = 1 << 16, 10
	for _, lens := range []struct {
		name     string
		min, max int
	}{{"uniform100", 100, 100}, {"mixed36-256", 36, 256}} {
		b.Run(lens.name, func(b *testing.B) {
			rng := rand.New(rand.NewPCG(1, uint64(lens.max)))
			var rs []reads.AlignedRead
			for bases := 0; bases < depth*n; {
				r := reads.AlignedRead{Strand: uint8(rng.IntN(2)), Hits: uint8(1 + rng.IntN(2))}
				size := lens.min + rng.IntN(lens.max-lens.min+1)
				r.Pos = rng.IntN(n+size) - size
				for range size {
					r.Bases = append(r.Bases, dna.Base(rng.IntN(4)))
					r.Quals = append(r.Quals, dna.Quality(rng.IntN(dna.QMax)))
				}
				rs = append(rs, r)
				bases += size
			}
			reads.SortByPos(rs)
			eng, err := New(gpuConfig())
			if err != nil {
				b.Fatal(err)
			}
			d := eng.cfg.Device
			w := new(window)
			w.reset(0, n)
			w.flatten(rs)
			bounds := gpu.Alloc[uint32](d, n+1)
			defer bounds.Free()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eng.countGPUHost(w, bounds)
			}
			b.ReportMetric(d.Stats().SimSeconds*1e6/float64(b.N), "sim_us/op")
		})
	}
}

func BenchmarkPackWord(b *testing.B) {
	o := pipeline.Obs{Base: 2, Qual: 37, Coord: 55, Strand: 1}
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += PackWord(o)
	}
	_ = sink
}
