package gsnp

import (
	"bytes"
	"context"
	"io"
	"testing"

	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
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
	benchEngine(b, pipeline.Config{CompressOutput: true}, gpuConfig)
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

func BenchmarkPackWord(b *testing.B) {
	o := pipeline.Obs{Base: 2, Qual: 37, Coord: 55, Strand: 1}
	var sink uint32
	for i := 0; i < b.N; i++ {
		sink += PackWord(o)
	}
	_ = sink
}
