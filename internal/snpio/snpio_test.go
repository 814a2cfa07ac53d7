package snpio

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/reads"
	"gsnp/internal/seqsim"
)

func TestFASTARoundTrip(t *testing.T) {
	seq1, _ := dna.ParseSequence(strings.Repeat("ACGTGGTTCA", 31)) // forces wrapping
	seq2, _ := dna.ParseSequence("ACGT")
	var buf bytes.Buffer
	err := WriteFASTA(&buf, FASTARecord{Name: "chr1", Seq: seq1}, FASTARecord{Name: "chr2", Seq: seq2})
	if err != nil {
		t.Fatalf("WriteFASTA: %v", err)
	}
	recs, err := ReadFASTA(&buf)
	if err != nil {
		t.Fatalf("ReadFASTA: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Name != "chr1" || recs[0].Seq.String() != seq1.String() {
		t.Error("record 1 corrupted")
	}
	if recs[1].Name != "chr2" || recs[1].Seq.String() != seq2.String() {
		t.Error("record 2 corrupted")
	}
}

func TestFASTAErrors(t *testing.T) {
	if _, err := ReadFASTA(strings.NewReader("ACGT\n")); err == nil {
		t.Error("sequence before header accepted")
	}
	if _, err := ReadFASTA(strings.NewReader(">\nACGT\n")); err == nil {
		t.Error("empty header accepted")
	}
	recs, err := ReadFASTA(strings.NewReader(">x desc here\nAC\n\nGT\n"))
	if err != nil || len(recs) != 1 || recs[0].Name != "x" || recs[0].Seq.String() != "ACGT" {
		t.Errorf("header description / blank line handling wrong: %v %v", recs, err)
	}
}

func makeReads(t testing.TB) []reads.AlignedRead {
	t.Helper()
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "chrT", Length: 5000, Seed: 1})
	d := seqsim.MakeDiploid(ref, seqsim.DefaultDiploidSpec(2))
	spec := seqsim.DefaultReadSpec(6, 3)
	spec.MaskFraction = 0
	rs, _ := seqsim.SampleReads(d, spec)
	return rs
}

func TestSOAPRoundTrip(t *testing.T) {
	rs := makeReads(t)
	var buf bytes.Buffer
	if err := WriteSOAP(&buf, "chrT", rs); err != nil {
		t.Fatalf("WriteSOAP: %v", err)
	}
	got, chr, err := ReadSOAP(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadSOAP: %v", err)
	}
	if chr != "chrT" {
		t.Errorf("chromosome = %q", chr)
	}
	if len(got) != len(rs) {
		t.Fatalf("got %d reads, want %d", len(got), len(rs))
	}
	for i := range rs {
		a, b := &rs[i], &got[i]
		if a.ID != b.ID || a.Pos != b.Pos || a.Strand != b.Strand || a.Hits != b.Hits {
			t.Fatalf("read %d metadata corrupted: %+v vs %+v", i, a, b)
		}
		if a.Bases.String() != b.Bases.String() {
			t.Fatalf("read %d bases corrupted", i)
		}
		for j := range a.Quals {
			if a.Quals[j] != b.Quals[j] {
				t.Fatalf("read %d quality corrupted at %d", i, j)
			}
		}
	}
}

func TestSOAPReverseStrandOrientation(t *testing.T) {
	// A reverse-strand read must be written in sequencing orientation:
	// reverse complement of the reference-oriented bases.
	seq, _ := dna.ParseSequence("AACG")
	r := reads.AlignedRead{
		ID: 7, Pos: 9, Strand: 1, Hits: 1,
		Bases: seq,
		Quals: []dna.Quality{10, 20, 30, 40},
	}
	var buf bytes.Buffer
	if err := WriteSOAP(&buf, "c", []reads.AlignedRead{r}); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	f := strings.Split(line, "\t")
	if f[1] != "CGTT" {
		t.Errorf("sequenced-orientation bases = %q, want CGTT", f[1])
	}
	// Qualities reversed: 40,30,20,10 -> I>3+ in Phred+33.
	if f[2] != string([]byte{40 + 33, 30 + 33, 20 + 33, 10 + 33}) {
		t.Errorf("sequenced-orientation quals = %q", f[2])
	}
	if f[5] != "-" || f[7] != "10" {
		t.Errorf("strand/pos = %q/%q", f[5], f[7])
	}
}

func TestSOAPReaderErrors(t *testing.T) {
	cases := []string{
		"read_1\tACGT\t!!!!\t1\t4\t+\tc",       // 7 fields
		"read_x\tACGT\t!!!!\t1\t4\t+\tc\t1",    // bad id
		"read_1\tACGT\t!!!!\t0\t4\t+\tc\t1",    // bad hits
		"read_1\tACGT\t!!!!\t1\t5\t+\tc\t1",    // bad length
		"read_1\tACGT\t!!!!\t1\t4\t*\tc\t1",    // bad strand
		"read_1\tACGT\t!!!!\t1\t4\t+\tc\t0",    // bad position
		"read_1\tACGT\t!!\x01!\t1\t4\t+\tc\t1", // bad quality char
	}
	for _, c := range cases {
		if _, _, err := ReadSOAP(strings.NewReader(c + "\n")); err == nil {
			t.Errorf("malformed line accepted: %q", c)
		}
	}
}

func TestKnownSNPsRoundTrip(t *testing.T) {
	snps := KnownSNPs{
		100: &bayes.KnownSNP{Freq: [4]float64{0.7, 0, 0.3, 0}, Validated: true},
		5:   &bayes.KnownSNP{Freq: [4]float64{0.25, 0.25, 0.25, 0.25}},
	}
	var buf bytes.Buffer
	if err := WriteKnownSNPs(&buf, "chr9", snps); err != nil {
		t.Fatal(err)
	}
	// Ascending positions.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || !strings.Contains(lines[0], "\t6\t") {
		t.Errorf("output order wrong: %v", lines)
	}
	got, err := ReadKnownSNPs(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := got["chr9"]
	if len(g) != 2 {
		t.Fatalf("got %d records", len(g))
	}
	if !g[100].Validated || g[100].Freq[0] != 0.7 || g[100].Freq[2] != 0.3 {
		t.Errorf("record corrupted: %+v", g[100])
	}
	if g[5].Validated {
		t.Error("validation flag corrupted")
	}
}

func TestKnownSNPsErrors(t *testing.T) {
	bad := []string{
		"chr1\t0\t1\t1\t0\t0\t0",   // position < 1
		"chr1\t5\t1\t0.5\t0\t0\t0", // frequencies don't sum to 1
		"chr1\t5\t1\t2\t0\t0\t0",   // frequency out of range
		"chr1\t5\t1\t0.5\t0.5\t0",  // missing column
	}
	for _, b := range bad {
		if _, err := ReadKnownSNPs(strings.NewReader(b + "\n")); err == nil {
			t.Errorf("malformed known-SNP line accepted: %q", b)
		}
	}
	// Comments and blank lines are fine.
	got, err := ReadKnownSNPs(strings.NewReader("# header\n\nchr1\t5\t1\t1.0\t0\t0\t0\n"))
	if err != nil || len(got["chr1"]) != 1 {
		t.Errorf("comment handling wrong: %v %v", got, err)
	}
}

func sampleRow() Row {
	return Row{
		Chr: "chr21", Pos: 12345, Ref: 'A', Genotype: 'R', Quality: 37,
		BestBase: 'A', AvgQualBest: 33, CountBest: 6, CountUniqBest: 5,
		SecondBase: 'G', AvgQualSecond: 30, CountSecond: 4, CountUniqSecond: 4,
		Depth: 10, RankSumP: 0.8714, CopyNum: 1.002, IsDbSNP: 1,
	}
}

func TestRowTextRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	rw := NewResultWriter(&buf)
	row := sampleRow()
	if err := rw.Write(&row); err != nil {
		t.Fatal(err)
	}
	row2 := row
	row2.Pos++
	row2.Genotype = 'A'
	row2.IsDbSNP = 0
	if err := rw.Write(&row2); err != nil {
		t.Fatal(err)
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if rw.Count() != 2 {
		t.Errorf("Count = %d", rw.Count())
	}
	rows, err := ReadResults(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0] != row {
		t.Errorf("row 0 corrupted:\n got %+v\nwant %+v", rows[0], row)
	}
	if rows[1] != row2 {
		t.Errorf("row 1 corrupted")
	}
}

func TestRowColumns(t *testing.T) {
	row := sampleRow()
	text := string(row.appendText(nil))
	cols := strings.Split(strings.TrimSpace(text), "\t")
	if len(cols) != NColumns {
		t.Fatalf("text row has %d columns, want %d", len(cols), NColumns)
	}
	if cols[0] != "chr21" || cols[1] != "12345" || cols[2] != "A" || cols[3] != "R" {
		t.Errorf("leading columns wrong: %v", cols[:4])
	}
	if cols[14] != "0.87140" || cols[15] != "1.002" || cols[16] != "1" {
		t.Errorf("trailing columns wrong: %v", cols[14:])
	}
}

func TestRowIsSNP(t *testing.T) {
	row := sampleRow()
	if !row.IsSNP() {
		t.Error("het row not flagged as SNP")
	}
	row.Genotype = 'A'
	if row.IsSNP() {
		t.Error("hom-ref row flagged as SNP")
	}
	row.Ref = 'N'
	if row.IsSNP() {
		t.Error("N-reference row flagged as SNP")
	}
}

func TestParseRowErrors(t *testing.T) {
	goodRow := sampleRow()
	good := string(goodRow.appendText(nil))
	if _, err := ParseRow(good); err != nil {
		t.Fatalf("good row rejected: %v", err)
	}
	bad := []string{
		"a\tb",
		strings.Replace(good, "12345", "x", 1),
		strings.Replace(good, "\tA\t", "\tAB\t", 1),
		strings.Replace(good, "0.87140", "zz", 1),
	}
	for _, b := range bad {
		if _, err := ParseRow(b); err == nil {
			t.Errorf("malformed row accepted: %q", b)
		}
	}
}

func TestRowPropertyRoundTrip(t *testing.T) {
	letters := []byte{'A', 'C', 'G', 'T'}
	iupac := []byte{'A', 'C', 'G', 'T', 'M', 'R', 'W', 'S', 'Y', 'K'}
	f := func(pos uint32, q, aq uint8, cb, d uint16, gi, bi uint8, p float64) bool {
		row := Row{
			Chr: "c", Pos: int64(pos) + 1, Ref: letters[bi%4],
			Genotype: iupac[gi%10], Quality: q % 100,
			BestBase: letters[bi%4], AvgQualBest: aq % 64,
			CountBest: cb, CountUniqBest: cb / 2,
			SecondBase: 'N', Depth: d,
			RankSumP: float64(uint16(p*10000)%10001) / 10000, CopyNum: 1,
		}
		text := string(row.appendText(nil))
		got, err := ParseRow(text)
		return err == nil && got == row
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSOAPReaderStreaming(t *testing.T) {
	rs := makeReads(t)[:10]
	var buf bytes.Buffer
	if err := WriteSOAP(&buf, "chrT", rs); err != nil {
		t.Fatal(err)
	}
	sr := NewSOAPReader(&buf)
	n := 0
	for {
		_, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n != 10 {
		t.Errorf("streamed %d records, want 10", n)
	}
}
