package gsnp

import (
	"bytes"
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

func BenchmarkEngineCPU(b *testing.B) {
	ds := benchDataset(b, 20000)
	b.SetBytes(int64(ds.Spec.Length))
	for i := 0; i < b.N; i++ {
		eng, err := New(Config{Chr: ds.Spec.Name, Ref: ds.Ref.Seq, Mode: ModeCPU})
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := eng.Run(pipeline.MemSource(ds.Reads), &buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineGPU(b *testing.B) {
	ds := benchDataset(b, 20000)
	b.SetBytes(int64(ds.Spec.Length))
	for i := 0; i < b.N; i++ {
		eng, err := New(Config{
			Chr: ds.Spec.Name, Ref: ds.Ref.Seq,
			Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050()),
		})
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := eng.Run(pipeline.MemSource(ds.Reads), &buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineGPUCompressed(b *testing.B) {
	ds := benchDataset(b, 20000)
	b.SetBytes(int64(ds.Spec.Length))
	for i := 0; i < b.N; i++ {
		eng, err := New(Config{
			Chr: ds.Spec.Name, Ref: ds.Ref.Seq,
			Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050()),
			CompressOutput: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := eng.Run(pipeline.MemSource(ds.Reads), &buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseLikelihoodCPUWindow(b *testing.B) {
	ds := benchDataset(b, 10000)
	eng, err := New(Config{Chr: ds.Spec.Name, Ref: ds.Ref.Seq, Mode: ModeCPU, Window: 10000})
	if err != nil {
		b.Fatal(err)
	}
	eng.tables = testTables()
	eng.run = directRun(eng, io.Discard)
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
