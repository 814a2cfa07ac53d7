// Quickstart: generate a tiny synthetic chromosome, call SNPs with the
// GPU-accelerated GSNP engine, and compare the calls against the injected
// ground truth.
//
//	go run ./examples/quickstart
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"

	"gsnp/internal/bayes"
	"gsnp/internal/gpu"
	"gsnp/internal/gsnp"
	"gsnp/internal/pipeline"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

func main() {
	// 1. Simulate a 50 kb chromosome sequenced at 12X: a reference, a
	//    diploid individual carrying SNPs, and position-sorted aligned
	//    reads (the data a read aligner would hand to the SNP caller).
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{
		Name: "chrDemo", Length: 50_000, Depth: 12, MaskFraction: 0.05, Seed: 42,
	})
	fmt.Printf("simulated %s: %v, %d true variants\n",
		ds.Spec.Name, ds.Stats(), len(ds.Diploid.Variants))

	// 2. Build the known-SNP prior records (the dbSNP-like input file).
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

	// 3. Call SNPs with GSNP on the simulated Tesla M2050: the run's shared
	//    settings, the sparse window kernel, and the two-pass driver over
	//    both.
	eng, err := gsnp.New(gsnp.Config{Mode: gsnp.ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	if err != nil {
		log.Fatal(err)
	}
	cfg := pipeline.Config{Chr: ds.Spec.Name, Ref: ds.Ref.Seq, Known: known, Window: gsnp.DefaultWindow}
	var out bytes.Buffer
	rep, err := pipeline.Run(context.Background(), cfg, pipeline.MemSource(ds.Reads), &out, eng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("called %d SNPs over %d sites (mean depth %.1fX)\n",
		rep.SNPs, rep.Sites, rep.MeanDepth)
	fmt.Printf("component times: %v\n", rep.Times)

	// 4. Compare calls with the ground truth.
	rows, err := snpio.ReadResults(&out)
	if err != nil {
		log.Fatal(err)
	}
	truth := map[int]byte{}
	for _, v := range ds.Diploid.Variants {
		truth[v.Pos] = v.Genotype.IUPAC()
	}
	var tp, fp, fn int
	for i := range rows {
		r := &rows[i]
		want, isVar := truth[int(r.Pos)-1]
		switch {
		case r.IsSNP() && isVar && r.Genotype == want:
			tp++
		case r.IsSNP() && !isVar:
			fp++
		case !r.IsSNP() && isVar && r.Depth >= 4:
			fn++
		}
	}
	fmt.Printf("vs ground truth: %d correct, %d missed (covered), %d spurious\n", tp, fn, fp)

	// 5. Show the first few SNP rows in SOAPsnp's 17-column format.
	fmt.Println("\nfirst SNP calls:")
	shown := 0
	for i := range rows {
		if rows[i].IsSNP() && shown < 5 {
			fmt.Printf("  chr=%s pos=%d ref=%c genotype=%c quality=%d depth=%d\n",
				rows[i].Chr, rows[i].Pos, rows[i].Ref, rows[i].Genotype,
				rows[i].Quality, rows[i].Depth)
			shown++
		}
	}
}
