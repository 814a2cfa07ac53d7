package snpio

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gsnp/internal/align"
	"gsnp/internal/dna"
	"gsnp/internal/seqsim"
)

func sampleRaws(t *testing.T) []align.RawRead {
	t.Helper()
	seq1, _ := dna.ParseSequence("ACGTACGTAC")
	seq2, _ := dna.ParseSequence("TTGGCCAATT")
	return []align.RawRead{
		{ID: 0, Seq: seq1, Quals: []dna.Quality{30, 31, 32, 33, 34, 35, 36, 37, 38, 39}},
		{ID: 7, Seq: seq2, Quals: []dna.Quality{5, 5, 5, 5, 5, 20, 20, 20, 20, 20}},
	}
}

func TestFASTQRoundTrip(t *testing.T) {
	raws := sampleRaws(t)
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, raws); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFASTQ(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(raws) {
		t.Fatalf("got %d reads", len(got))
	}
	for i := range raws {
		if got[i].ID != raws[i].ID {
			t.Errorf("read %d id = %d", i, got[i].ID)
		}
		if got[i].Seq.String() != raws[i].Seq.String() {
			t.Errorf("read %d sequence corrupted", i)
		}
		for j := range raws[i].Quals {
			if got[i].Quals[j] != raws[i].Quals[j] {
				t.Errorf("read %d quality corrupted at %d", i, j)
			}
		}
	}
}

func TestFASTQFormat(t *testing.T) {
	raws := sampleRaws(t)[:1]
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, raws); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("FASTQ record has %d lines", len(lines))
	}
	if lines[0] != "@read_0" || lines[1] != "ACGTACGTAC" || lines[2] != "+" {
		t.Errorf("unexpected record: %v", lines)
	}
}

func TestFASTQErrors(t *testing.T) {
	bad := []string{
		"read_1\nACGT\n+\n!!!!\n",     // missing @
		"@read_1\nACGT\n-\n!!!!\n",    // bad separator
		"@read_1\nACGT\n+\n!!!\n",     // quality length mismatch
		"@read_1\nACGT\n+\n!!\x01!\n", // bad quality char
		"@read_1\nACGT\n",             // truncated
	}
	for _, b := range bad {
		if _, err := ReadFASTQ(strings.NewReader(b)); err == nil {
			t.Errorf("malformed FASTQ accepted: %q", b)
		}
	}
	// Unparseable ids fall back to ordinal numbering.
	got, err := ReadFASTQ(strings.NewReader("@weird header\nAC\n+\nII\n"))
	if err != nil || len(got) != 1 || got[0].ID != 0 {
		t.Errorf("header fallback wrong: %v %v", got, err)
	}
}

// refReadFASTQ is ReadFASTQ as it was before it decoded from the scanner's
// bytes into slabs, kept verbatim (renamed) as the reference the slab
// parser is compared against: a string per line, strings.Fields for the
// header and fresh Seq/Quals slices per read.
func refReadFASTQ(r io.Reader) ([]align.RawRead, error) {
	ls := newLineScanner(r)
	var raws []align.RawRead
	next := func() (string, bool) {
		if !ls.scan() {
			return "", false
		}
		return ls.text(), true
	}
	errf := func(field, format string, args ...any) *ParseError {
		return &ParseError{Format: "fastq", Line: ls.line, Offset: ls.start,
			Field: field, Msg: fmt.Sprintf(format, args...)}
	}
	for {
		head, ok := next()
		if !ok {
			break
		}
		if strings.TrimSpace(head) == "" {
			continue
		}
		if !strings.HasPrefix(head, "@") {
			return nil, errf("header", "expected @header, got %q", head)
		}
		seqLine, ok := next()
		if !ok {
			return nil, errf("sequence", "truncated record")
		}
		plus, ok := next()
		if !ok || !strings.HasPrefix(plus, "+") {
			return nil, errf("separator", "expected '+' separator")
		}
		qualLine, ok := next()
		if !ok {
			return nil, errf("quality", "missing quality line")
		}
		if len(qualLine) != len(seqLine) {
			return nil, errf("quality", "quality length %d != sequence length %d", len(qualLine), len(seqLine))
		}
		var raw align.RawRead
		raw.ID = int64(len(raws))
		if fields := strings.Fields(head[1:]); len(fields) > 0 {
			idStr := strings.TrimPrefix(fields[0], "read_")
			if id, err := strconv.ParseInt(idStr, 10, 64); err == nil {
				raw.ID = id
			}
		}
		raw.Seq, _ = dna.ParseSequence(seqLine) // Ns tolerated as A
		raw.Quals = make([]dna.Quality, len(qualLine))
		for j := 0; j < len(qualLine); j++ {
			c := qualLine[j]
			if c < qualOffset {
				return nil, errf("quality", "bad quality character %q", c)
			}
			raw.Quals[j] = dna.ClampQuality(int(c) - qualOffset)
		}
		raws = append(raws, raw)
	}
	if err := ls.err(); err != nil {
		return nil, err
	}
	return raws, nil
}

// requireFASTQMatchesReference runs data through ReadFASTQ and the
// reference: the reads must be deeply equal (nil and empty slices kept
// apart), or the errors must be — the complete *ParseError, line, offset,
// field and message.
func requireFASTQMatchesReference(t *testing.T, data string) {
	t.Helper()
	got, gotErr := ReadFASTQ(strings.NewReader(data))
	want, wantErr := refReadFASTQ(strings.NewReader(data))
	if !reflect.DeepEqual(gotErr, wantErr) {
		t.Fatalf("input %q:\n error %v\n  want %v", data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("input %q:\n reads %+v\n  want %+v", data, got, want)
	}
}

// fastqText writes the simulated reads of a reference of refLen sites
// (depth 6, 100 bp: about refLen/17 reads) as FASTQ.
func fastqText(t testing.TB, refLen int) (text []byte, n int) {
	t.Helper()
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "chrT", Length: refLen, Seed: 1})
	d := seqsim.MakeDiploid(ref, seqsim.DefaultDiploidSpec(2))
	truth, _ := seqsim.SampleReads(d, seqsim.DefaultReadSpec(6, 3))
	raws := make([]align.RawRead, len(truth))
	for i := range truth {
		raws[i] = align.RawFromAligned(&truth[i])
	}
	var buf bytes.Buffer
	if err := WriteFASTQ(&buf, raws); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), len(raws)
}

// TestFASTQParserMatchesReference drives the slab parser and the reference
// with a written read set, then with that text damaged one byte at a time,
// so that every error branch is reached in mid-file.
func TestFASTQParserMatchesReference(t *testing.T) {
	data, _ := fastqText(t, 3000)
	text := string(data)
	requireFASTQMatchesReference(t, text)
	requireFASTQMatchesReference(t, strings.ReplaceAll(text, "\n", "\r\n"))
	requireFASTQMatchesReference(t, "\n  \n"+strings.TrimSuffix(text, "\n"))

	rng := rand.New(rand.NewSource(5))
	subst := []byte("@+ \t\x01\x85059-_ACGTNacgtI\r\n")
	for i := 0; i < 4000; i++ {
		b := []byte(text)
		at := rng.Intn(len(b))
		if rng.Intn(4) == 0 {
			b = append(b[:at], b[at+1:]...)
		} else {
			b[at] = subst[rng.Intn(len(subst))]
		}
		requireFASTQMatchesReference(t, string(b))
	}
}

// TestReadFASTQAllocs: reads' Seq and Quals are carved from chunked slabs
// and no line becomes a string, so allocations grow by slab chunk (and the
// read slice's growth), not by read. The per-line-string parser made
// about 7 allocations per read.
func TestReadFASTQAllocs(t *testing.T) {
	allocs := func(refLen int) (float64, int) {
		data, n := fastqText(t, refLen)
		return testing.AllocsPerRun(3, func() {
			if _, err := ReadFASTQ(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		}), n
	}
	small, nSmall := allocs(30_000)
	large, nLarge := allocs(120_000)
	perRead := (large - small) / float64(nLarge-nSmall)
	if perRead > 0.02 {
		t.Errorf("ReadFASTQ: %.0f allocations at %d reads, %.0f at %d: %.3f per extra read, want <= 0.02",
			small, nSmall, large, nLarge, perRead)
	}
}

// BenchmarkReadFASTQ measures FASTQ parsing (one op = one file of about
// 12 000 reads of 100 bp).
func BenchmarkReadFASTQ(b *testing.B) {
	data, _ := fastqText(b, 200_000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadFASTQ(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
