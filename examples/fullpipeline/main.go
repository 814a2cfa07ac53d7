// Fullpipeline: the complete production flow of the paper's setting — raw
// sequencer reads, short-read alignment (the SOAP stage), then GPU SNP
// detection — with every intermediate written through the real file
// formats (FASTA reference, SOAP alignment text, known-SNP priors, GSNP
// compressed output).
//
//	go run ./examples/fullpipeline
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"gsnp/internal/align"
	"gsnp/internal/gpu"
	"gsnp/internal/gsnp"
	"gsnp/internal/harness"
	"gsnp/internal/pipeline"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

func main() {
	dir, err := os.MkdirTemp("", "gsnp-pipeline-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. A reference genome and an individual's raw reads.
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{
		Name: "chrP", Length: 80_000, Depth: 10, MaskFraction: 0.05, Seed: 11,
	})
	raws := make([]align.RawRead, len(ds.Reads))
	for i := range ds.Reads {
		raws[i] = align.RawFromAligned(&ds.Reads[i])
	}
	fmt.Printf("sequenced %d raw reads of %d bp from %s (%d sites)\n",
		len(raws), ds.ReadSpec.ReadLen, ds.Spec.Name, len(ds.Ref.Seq))

	// 2. Write the reference and align the raw reads against it (the
	//    stage SOAP performs in the paper's pipeline).
	refPath := filepath.Join(dir, "ref.fa")
	mustWrite(refPath, func(f *os.File) error {
		return snpio.WriteFASTA(f, snpio.FASTARecord{Name: ds.Spec.Name, Seq: ds.Ref.Seq})
	})
	ix, err := align.BuildIndex(ds.Ref.Seq, align.DefaultK)
	if err != nil {
		log.Fatal(err)
	}
	aligned := align.AlignReads(ix, raws, 2)
	fmt.Printf("aligned %d/%d reads (%.1f%%)\n", len(aligned), len(raws),
		100*float64(len(aligned))/float64(len(raws)))

	// 3. Write the SOAP-format alignment file, the SNP caller's input.
	alnPath := filepath.Join(dir, "reads.soap")
	mustWrite(alnPath, func(f *os.File) error {
		return snpio.WriteSOAP(f, ds.Spec.Name, aligned)
	})
	info, _ := os.Stat(alnPath)
	fmt.Printf("wrote %s (%.1f MB)\n", alnPath, float64(info.Size())/(1<<20))

	// 4. Call SNPs with GSNP, reading the alignment file twice as the
	//    real pipeline does (cal_p_matrix, then the windowed pass).
	src := pipeline.FuncSource(func() (pipeline.ReadIter, error) {
		f, err := os.Open(alnPath)
		if err != nil {
			return nil, err
		}
		return snpio.NewSOAPReader(f), nil
	})
	eng, err := gsnp.New(gsnp.Config{Mode: gsnp.ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	if err != nil {
		log.Fatal(err)
	}
	cfg := pipeline.Config{
		Chr: ds.Spec.Name, Ref: ds.Ref.Seq, Known: harness.KnownSNPs(ds),
		Window: gsnp.DefaultWindow, Output: pipeline.CodecPacked,
	}
	var out bytes.Buffer
	rep, err := pipeline.Run(context.Background(), cfg, src, &out, eng)
	if err != nil {
		log.Fatal(err)
	}
	outPath := filepath.Join(dir, "result.gsnp")
	if err := os.WriteFile(outPath, out.Bytes(), 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("called %d SNPs; compressed result %.1f KB (%s)\n",
		rep.SNPs, float64(out.Len())/1024, outPath)

	// 5. Decompress and score against the simulator's ground truth.
	rows, err := snpio.ReadAllBlocks(bytes.NewReader(out.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	truth := map[int]byte{}
	for _, v := range ds.Diploid.Variants {
		truth[v.Pos] = v.Genotype.IUPAC()
	}
	var tp, fp int
	for i := range rows {
		if !rows[i].IsSNP() {
			continue
		}
		if want, ok := truth[int(rows[i].Pos)-1]; ok && rows[i].Genotype == want {
			tp++
		} else {
			fp++
		}
	}
	fmt.Printf("ground truth: %d injected variants; %d recovered exactly, %d spurious\n",
		len(ds.Diploid.Variants), tp, fp)
}

func mustWrite(path string, f func(*os.File) error) {
	file, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := f(file); err != nil {
		log.Fatal(err)
	}
	if err := file.Close(); err != nil {
		log.Fatal(err)
	}
}
