// Compression: the customized output codecs of Section V — run SNP
// detection, write the result as plain text, gzip and the GSNP compressed
// container, compare sizes, and stream the container back through the
// decompression API.
//
//	go run ./examples/compression
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"

	"gsnp/internal/compress"
	"gsnp/internal/gpu"
	"gsnp/internal/gsnp"
	"gsnp/internal/harness"
	"gsnp/internal/pipeline"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

func main() {
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{
		Name: "chrDemo", Length: 120_000, Depth: 10, MaskFraction: 0.1, Seed: 99,
	})
	cfg := pipeline.Config{Chr: ds.Spec.Name, Ref: ds.Ref.Seq, Known: harness.KnownSNPs(ds), Window: gsnp.DefaultWindow}
	ctx := context.Background()

	// Plain-text output (the SOAPsnp format).
	textEng, err := gsnp.New(gsnp.Config{Mode: gsnp.ModeCPU})
	if err != nil {
		log.Fatal(err)
	}
	var text bytes.Buffer
	if _, err := pipeline.Run(ctx, cfg, pipeline.MemSource(ds.Reads), &text, textEng); err != nil {
		log.Fatal(err)
	}

	// GSNP container with the RLE-DICT columns compressed on the device.
	binEng, err := gsnp.New(gsnp.Config{Mode: gsnp.ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	if err != nil {
		log.Fatal(err)
	}
	cfg.Output = pipeline.CodecPacked
	var blob bytes.Buffer
	if _, err := pipeline.Run(ctx, cfg, pipeline.MemSource(ds.Reads), &blob, binEng); err != nil {
		log.Fatal(err)
	}

	gz, err := compress.Gzip(text.Bytes())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("result table for %d sites:\n", len(ds.Ref.Seq))
	fmt.Printf("  plain text:     %8d bytes\n", text.Len())
	fmt.Printf("  gzip:           %8d bytes (%.1fx smaller than text)\n", len(gz), float64(text.Len())/float64(len(gz)))
	fmt.Printf("  GSNP container: %8d bytes (%.1fx smaller than text, %.1fx smaller than gzip)\n",
		blob.Len(), float64(text.Len())/float64(blob.Len()), float64(len(gz))/float64(blob.Len()))
	fmt.Printf("  (paper, Fig. 9a: text 14-16x and gzip ~1.5x larger than GSNP)\n\n")

	// Stream the container back, block by block, and verify it matches
	// the plain text row for row.
	wantRows, err := snpio.ReadResults(bytes.NewReader(text.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	br := snpio.NewBlockReader(bytes.NewReader(blob.Bytes()))
	var got int
	var snps int
	for {
		rows, err := br.NextBlock()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatal(err)
		}
		for i := range rows {
			if rows[i] != wantRows[got] {
				log.Fatalf("row %d differs after decompression", got)
			}
			if rows[i].IsSNP() {
				snps++
			}
			got++
		}
	}
	fmt.Printf("decompressed %d rows (%d SNPs) — identical to the plain-text output\n", got, snps)

	// The temporary input compression of Section V-A.
	var soap bytes.Buffer
	if err := snpio.WriteSOAP(&soap, ds.Spec.Name, ds.Reads); err != nil {
		log.Fatal(err)
	}
	var tmp bytes.Buffer
	tw := snpio.NewTempWriter(&tmp, ds.Spec.Name)
	for i := range ds.Reads {
		if err := tw.Write(&ds.Reads[i]); err != nil {
			log.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntemporary input: %d bytes -> %d bytes (%.0f%% of the original; paper: ~33%%)\n",
		soap.Len(), tmp.Len(), 100*float64(tmp.Len())/float64(soap.Len()))
}
