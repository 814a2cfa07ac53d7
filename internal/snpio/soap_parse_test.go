package snpio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/reads"
)

// refSOAPRecord is the string-splitting record parser SOAPReader used
// before it parsed in place, kept as the reference the in-place parser is
// compared against: same record or same (field, message) for every line.
func refSOAPRecord(text string) (r reads.AlignedRead, chr, field, msg string) {
	fail := func(field, format string, args ...any) (reads.AlignedRead, string, string, string) {
		return r, chr, field, fmt.Sprintf(format, args...)
	}
	f := strings.Split(text, "\t")
	if len(f) != 8 {
		return fail("", "%d fields, want 8", len(f))
	}
	id, err := strconv.ParseInt(strings.TrimPrefix(f[0], "read_"), 10, 64)
	if err != nil {
		return fail("id", "bad read id %q", f[0])
	}
	r.ID = id
	seq, _ := dna.ParseSequence(f[1])
	hits, err := strconv.Atoi(f[3])
	if err != nil || hits < 1 || hits > 255 {
		return fail("hits", "bad hit count %q", f[3])
	}
	r.Hits = uint8(hits)
	length, err := strconv.Atoi(f[4])
	if err != nil || length != len(seq) || length != len(f[2]) {
		return fail("length", "length %q inconsistent with sequence", f[4])
	}
	switch f[5] {
	case "+":
		r.Strand = 0
	case "-":
		r.Strand = 1
	default:
		return fail("strand", "bad strand %q", f[5])
	}
	chr = f[6]
	pos, err := strconv.Atoi(f[7])
	if err != nil || pos < 1 {
		return fail("position", "bad position %q", f[7])
	}
	r.Pos = pos - 1
	quals := make([]dna.Quality, length)
	for i := 0; i < length; i++ {
		c := f[2][i]
		if c < qualOffset {
			return fail("quality", "bad quality character %q", c)
		}
		quals[i] = dna.ClampQuality(int(c) - qualOffset)
	}
	if r.Strand == 1 {
		seq = seq.ReverseComplement()
		for i, j := 0, len(quals)-1; i < j; i, j = i+1, j-1 {
			quals[i], quals[j] = quals[j], quals[i]
		}
	}
	r.Bases = seq
	r.Quals = quals
	return r, chr, "", ""
}

// refReadSOAP is ReadSOAP over refSOAPRecord, with line numbers and byte
// offsets taken from the data itself.
func refReadSOAP(data string) ([]reads.AlignedRead, string, *ParseError) {
	var rs []reads.AlignedRead
	chr := ""
	for line, off := 1, 0; off < len(data); line++ {
		end, next := len(data), len(data)
		if nl := strings.IndexByte(data[off:], '\n'); nl >= 0 {
			end, next = off+nl, off+nl+1
		}
		text := strings.TrimSpace(strings.TrimSuffix(data[off:end], "\r"))
		if text != "" {
			r, c, field, msg := refSOAPRecord(text)
			if msg != "" {
				return nil, "", &ParseError{Format: "soap", Line: line, Offset: int64(off), Field: field, Msg: msg}
			}
			rs, chr = append(rs, r), c
		}
		off = next
	}
	return rs, chr, nil
}

// requireSOAPMatchesReference runs data through ReadSOAP and the
// reference; records, chromosome and the complete ParseError must agree.
func requireSOAPMatchesReference(t *testing.T, data string) {
	t.Helper()
	wantRecs, wantChr, wantErr := refReadSOAP(data)
	gotRecs, gotChr, err := ReadSOAP(strings.NewReader(data))
	if wantErr != nil {
		var pe *ParseError
		if !errors.As(err, &pe) || *pe != *wantErr {
			t.Fatalf("input %q:\n got error  %v\n want error %v", data, err, wantErr)
		}
		return
	}
	if err != nil {
		t.Fatalf("input %q: unexpected error %v", data, err)
	}
	if gotChr != wantChr || !reflect.DeepEqual(gotRecs, wantRecs) {
		t.Fatalf("input %q:\n got  %q %+v\n want %q %+v", data, gotChr, gotRecs, wantChr, wantRecs)
	}
}

// TestSOAPParserMatchesReference drives the in-place parser and the
// reference with a written read set, then with that text damaged one byte
// at a time — deleted, or replaced by a tab, a space, a control character,
// a digit, a sign, a letter, a \r — so that every error branch is reached
// with the line and offset of a record in mid-file.
func TestSOAPParserMatchesReference(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSOAP(&buf, "chrT", makeReads(t)[:40]); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	requireSOAPMatchesReference(t, text)
	requireSOAPMatchesReference(t, strings.ReplaceAll(text, "\n", "\r\n"))
	requireSOAPMatchesReference(t, "\n  \n"+strings.TrimSuffix(text, "\n"))

	for _, s := range []string{
		"", "\n", "garbage line\n", "a\tb\tc\td\te\tf\tg\th\ti\tj\n",
		"read_1\tACGT\tIIII\t1\t4\t+\tc\t1",
		"read_+7\tACgn\tI!~\x7f\t255\t4\t-\tc\t9\n",
		"read_1\tACGT\tIIII\t256\t4\t+\tc\t1\n",
		"read_1\tACGT\tIIII\t1\t04\t+\tc\t1\n",
		"read_1\tACGT\tIII\x1f\t1\t4\t+\tc\t0\n",
		"read_99999999999999999999\tACGT\tIIII\t1\t4\t+\tc\t1\n",
		"7\t\t\t1\t0\t+\t\t1\n",
		"\tread_1\tACGT\tIIII\t1\t4\t+\tc\t1\t\n",
	} {
		requireSOAPMatchesReference(t, s)
	}

	rng := rand.New(rand.NewSource(5))
	subst := []byte("\t \x01059+-AZ\r\n")
	for i := 0; i < 4000; i++ {
		b := []byte(text)
		at := rng.Intn(len(b))
		if rng.Intn(4) == 0 {
			b = append(b[:at], b[at+1:]...)
		} else {
			b[at] = subst[rng.Intn(len(subst))]
		}
		requireSOAPMatchesReference(t, string(b))
	}
}

// TestSOAPReaderAllocs pins the parser's allocation budget: a record's
// Bases and Quals are pieces of the reader's two slabs, so reading a
// 10,000-record stream — reader set-up and slab chunks included — costs
// under 0.01 allocations a record, and nothing per record. (The stream is
// read whole inside one AllocsPerRun call: AllocsPerRun divides in
// integers, so a per-record call would read 0 for any average below one.)
func TestSOAPReaderAllocs(t *testing.T) {
	base := makeReads(t)
	rs := make([]reads.AlignedRead, 10_000)
	for i := range rs {
		rs[i] = base[i%len(base)]
	}
	var buf bytes.Buffer
	if err := WriteSOAP(&buf, "chrT", rs); err != nil {
		t.Fatal(err)
	}
	stream := testing.AllocsPerRun(1, func() {
		sr := NewSOAPReader(bytes.NewReader(buf.Bytes()))
		n := 0
		for ; ; n++ {
			_, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if n != len(rs) {
			t.Fatalf("read %d records, want %d", n, len(rs))
		}
	})
	if perRecord := stream / float64(len(rs)); perRecord >= 0.01 {
		t.Errorf("SOAPReader allocates %.0f times over %d records, %.4f a record, want < 0.01", stream, len(rs), perRecord)
	}
	t.Logf("%.0f allocations over %d records", stream, len(rs))
}

// TestParseErrorOffsetCRLF pins the byte offset the three text readers
// report on \r\n input: the start of the offending line as a seek would
// find it, not one byte short per preceding line.
func TestParseErrorOffsetCRLF(t *testing.T) {
	offsetOf := func(err error) (int, int64) {
		t.Helper()
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("want a *ParseError, got %v", err)
		}
		return pe.Line, pe.Offset
	}
	check := func(format, data, badLine string, err error) {
		t.Helper()
		wantOff := int64(strings.LastIndex(data, badLine))
		wantLine := strings.Count(data[:wantOff], "\n") + 1
		if line, off := offsetOf(err); line != wantLine || off != wantOff {
			t.Errorf("%s: error at line %d byte %d, want line %d byte %d", format, line, off, wantLine, wantOff)
		}
	}

	soap := "read_1\tACGT\tIIII\t1\t4\t+\tchr1\t10\r\n" +
		"read_2\tACGT\tIIII\t1\t4\t-\tchr1\t12\r\n" +
		"read_3\tACGT\tIIII\t1\t4\t+\tchr1\tzero\r\n"
	_, _, err := ReadSOAP(strings.NewReader(soap))
	check("soap", soap, "read_3", err)

	sam := "@HD\tVN:1.6\tSO:coordinate\r\n" +
		"@SQ\tSN:chr1\tLN:100\r\n" +
		"read_1\t0\tchr1\t10\t60\t4M\t*\t0\t0\tACGT\tIIII\r\n" +
		"read_2\tx\tchr1\t12\t60\t4M\t*\t0\t0\tACGT\tIIII\r\n"
	sr := NewSAMReader(strings.NewReader(sam))
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	_, err = sr.Next()
	check("sam", sam, "read_2", err)

	fastq := "@read_1\r\nACGT\r\n+\r\nIIII\r\n" +
		"@read_2\r\nACGT\r\n+\r\nII\r\n"
	_, err = ReadFASTQ(strings.NewReader(fastq))
	check("fastq", fastq, "II\r\n", err)

	// A last line without a terminator is still located exactly.
	tail := "read_1\tACGT\tIIII\t1\t4\t+\tchr1\t10\r\n\r\nbroken"
	_, _, err = ReadSOAP(strings.NewReader(tail))
	check("soap tail", tail, "broken", err)
}

func BenchmarkSOAPReader(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteSOAP(&buf, "chrT", makeReads(b)); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sr := NewSOAPReader(bytes.NewReader(buf.Bytes()))
		for {
			if _, err := sr.Next(); err != nil {
				break
			}
		}
	}
}
