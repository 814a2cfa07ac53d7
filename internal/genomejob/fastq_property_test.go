package genomejob

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"gsnp/internal/align"
	"gsnp/internal/dna"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

// writeFASTQUnit materializes one simulated chromosome as the FASTQ
// pipeline's on-disk inputs (<name>.fa + <name>.fq, no priors) and
// returns the Unit describing them.
func writeFASTQUnit(t *testing.T, dir string, ds *seqsim.Dataset) Unit {
	t.Helper()
	name := ds.Spec.Name
	fa := filepath.Join(dir, name+".fa")
	fq := filepath.Join(dir, name+".fq")

	f, err := os.Create(fa)
	if err != nil {
		t.Fatal(err)
	}
	if err := snpio.WriteFASTA(f, snpio.FASTARecord{Name: name, Seq: ds.Ref.Seq}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	raws := make([]align.RawRead, len(ds.Reads))
	for i := range ds.Reads {
		raws[i] = align.RawFromAligned(&ds.Reads[i])
	}
	f, err = os.Create(fq)
	if err != nil {
		t.Fatal(err)
	}
	if err := snpio.WriteFASTQ(f, raws); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return Unit{Name: name + ".fa", Ref: fa, Aln: fq}
}

// genotypeByIUPAC inverts dna.Genotype.IUPAC (the code the result table
// prints in its genotype column).
func genotypeByIUPAC(t *testing.T, code byte) dna.Genotype {
	t.Helper()
	for rank := 0; rank < dna.NGenotypes; rank++ {
		g := dna.GenotypeByRank(rank)
		if g.IUPAC() == code {
			return g
		}
	}
	t.Fatalf("no genotype has IUPAC code %q", code)
	return 0
}

// TestFASTQToVCFProperties checks semantic invariants of the VCF codec
// against the reference and the 17-column table over a corpus of
// fuzz-seeded simulated chromosomes: every record's POS is in range and
// its REF matches the reference FASTA base at that position, the ALT set
// is non-reference and duplicate-free, and the GT indices select exactly
// the allele pair of the table's IUPAC consensus genotype at the same
// site. The VCF must carry one record per SNP row of the table — no
// variant invented, none dropped.
func TestFASTQToVCFProperties(t *testing.T) {
	totalVariants := 0
	for _, seed := range []int64{3, 17, 92, 441, 1009, 31337} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			spec := seqsim.ChromosomeSpec{
				Name: "chrProp", Length: 9000, Depth: 9, MaskFraction: 0.1, Seed: seed,
			}
			ds := seqsim.BuildDataset(spec)
			u := writeFASTQUnit(t, t.TempDir(), ds)

			opts := Options{Engine: "gsnp-cpu", Format: "fastq"}
			var wk Worker
			var rowsOut, vcfOut bytes.Buffer
			if _, err := wk.Call(context.Background(), opts, u, &rowsOut, io.Discard); err != nil {
				t.Fatal(err)
			}
			opts.OutputFormat = "vcf"
			if _, err := wk.Call(context.Background(), opts, u, &vcfOut, io.Discard); err != nil {
				t.Fatal(err)
			}

			// Index the table by position and count its SNP rows.
			rows := make(map[int64]snpio.Row)
			snpRows := 0
			for _, line := range strings.Split(strings.TrimRight(rowsOut.String(), "\n"), "\n") {
				r, err := snpio.ParseRow(line)
				if err != nil {
					t.Fatal(err)
				}
				rows[r.Pos] = r
				if r.IsSNP() {
					snpRows++
				}
			}

			vcf := vcfOut.String()
			if !strings.HasPrefix(vcf, "##fileformat=VCFv4.2\n") {
				t.Fatalf("VCF output misses the version header:\n%.200s", vcf)
			}
			records := 0
			for _, line := range strings.Split(strings.TrimRight(vcf, "\n"), "\n") {
				if strings.HasPrefix(line, "#") {
					continue
				}
				records++
				f := strings.Split(line, "\t")
				if len(f) != 10 {
					t.Fatalf("VCF record has %d fields, want 10: %q", len(f), line)
				}
				if f[0] != "chrProp" {
					t.Errorf("CHROM = %q, want chrProp", f[0])
				}
				pos, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil || pos < 1 || pos > int64(len(ds.Ref.Seq)) {
					t.Fatalf("POS %q out of [1, %d]", f[1], len(ds.Ref.Seq))
				}
				if len(f[3]) != 1 || f[3][0] != ds.Ref.Seq[pos-1].Byte() {
					t.Errorf("pos %d: REF = %q, reference FASTA has %c", pos, f[3], ds.Ref.Seq[pos-1].Byte())
				}
				qual, err := strconv.Atoi(f[5])
				if err != nil || qual < 0 || qual > 99 {
					t.Errorf("pos %d: QUAL %q outside the Phred range [0, 99]", pos, f[5])
				}
				if f[6] != "PASS" {
					t.Errorf("pos %d: FILTER = %q, want PASS", pos, f[6])
				}
				if f[8] != "GT:GQ" {
					t.Errorf("pos %d: FORMAT = %q, want GT:GQ", pos, f[8])
				}

				// ALT: non-reference, duplicate-free, parseable bases.
				alts := strings.Split(f[4], ",")
				if len(alts) < 1 || len(alts) > 2 {
					t.Fatalf("pos %d: %d ALT alleles: %q", pos, len(alts), f[4])
				}
				alleles := []string{f[3]}
				for _, a := range alts {
					if a == f[3] {
						t.Errorf("pos %d: ALT %q equals REF", pos, a)
					}
					if len(a) != 1 {
						t.Fatalf("pos %d: multi-base ALT %q", pos, a)
					}
					if _, ok := dna.ParseBase(a[0]); !ok {
						t.Fatalf("pos %d: ALT %q is not a base", pos, a)
					}
					for _, seen := range alleles[1:] {
						if seen == a {
							t.Errorf("pos %d: duplicate ALT %q", pos, a)
						}
					}
					alleles = append(alleles, a)
				}

				// Sample column: GT indices select the table's consensus
				// genotype; GQ mirrors QUAL.
				gt, gq, ok := strings.Cut(f[9], ":")
				if !ok || gq != f[5] {
					t.Errorf("pos %d: sample %q, want GT:%s", pos, f[9], f[5])
				}
				i1, i2, ok := strings.Cut(gt, "/")
				if !ok {
					t.Fatalf("pos %d: unphased GT %q expected", pos, gt)
				}
				a1, err1 := strconv.Atoi(i1)
				a2, err2 := strconv.Atoi(i2)
				if err1 != nil || err2 != nil || a1 < 0 || a2 < 0 ||
					a1 >= len(alleles) || a2 >= len(alleles) {
					t.Fatalf("pos %d: GT %q indexes outside REF+ALT (%d alleles)", pos, gt, len(alleles))
				}
				if a1 == 0 && a2 == 0 {
					t.Errorf("pos %d: GT 0/0 in a variants-only VCF", pos)
				}
				row, ok := rows[pos]
				if !ok {
					t.Fatalf("pos %d: VCF variant absent from the result table", pos)
				}
				if !row.IsSNP() {
					t.Errorf("pos %d: table row is homozygous-reference, VCF calls %q", pos, gt)
				}
				w1, w2 := genotypeByIUPAC(t, row.Genotype).Alleles()
				got := []byte{alleles[a1][0], alleles[a2][0]}
				want := []byte{w1.Byte(), w2.Byte()}
				if got[0] > got[1] {
					got[0], got[1] = got[1], got[0]
				}
				if want[0] > want[1] {
					want[0], want[1] = want[1], want[0]
				}
				if got[0] != want[0] || got[1] != want[1] {
					t.Errorf("pos %d: GT alleles %c/%c, consensus genotype %c is %c/%c",
						pos, got[0], got[1], row.Genotype, want[0], want[1])
				}
			}
			if records != snpRows {
				t.Errorf("VCF has %d records, result table has %d SNP rows", records, snpRows)
			}
			totalVariants += records
		})
	}
	if totalVariants == 0 {
		t.Error("corpus produced no variants at all; the property checks were vacuous")
	}
}
