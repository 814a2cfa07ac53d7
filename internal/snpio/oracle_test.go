package snpio

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/reads"
)

// The SOAP record parser and the row text encoder as they were before the
// slab-carving parser and the in-place row printer replaced them, kept as
// the oracles FuzzSOAPParseOracle and FuzzRowTextOracle hold the new code
// to.

// parseV1 is the previous SOAPReader.parse: a bytes.Count of the tabs,
// strconv for the numeric columns, an allocation each for Bases and Quals
// and one decode loop with a per-base strand branch.
func (sr *SOAPReader) parseV1(line []byte) (reads.AlignedRead, error) {
	if n := bytes.Count(line, []byte{'\t'}) + 1; n != soapFields {
		return reads.AlignedRead{}, sr.errf("", "%d fields, want 8", n)
	}
	var f [soapFields][]byte
	rest := line
	for i := 0; i < soapFields-1; i++ {
		tab := bytes.IndexByte(rest, '\t')
		f[i], rest = rest[:tab], rest[tab+1:]
	}
	f[soapFields-1] = rest

	var r reads.AlignedRead
	id, err := strconv.ParseInt(string(bytes.TrimPrefix(f[0], []byte("read_"))), 10, 64)
	if err != nil {
		return r, sr.errf("id", "bad read id %q", f[0])
	}
	r.ID = id
	seq, qual := f[1], f[2]
	hits, err := strconv.Atoi(string(f[3]))
	if err != nil || hits < 1 || hits > 255 {
		return r, sr.errf("hits", "bad hit count %q", f[3])
	}
	r.Hits = uint8(hits)
	length, err := strconv.Atoi(string(f[4]))
	if err != nil || length != len(seq) || length != len(qual) {
		return r, sr.errf("length", "length %q inconsistent with sequence", f[4])
	}
	switch {
	case len(f[5]) == 1 && f[5][0] == '+':
		r.Strand = 0
	case len(f[5]) == 1 && f[5][0] == '-':
		r.Strand = 1
	default:
		return r, sr.errf("strand", "bad strand %q", f[5])
	}
	if sr.chr != string(f[6]) {
		sr.chr = string(f[6])
	}
	pos, err := strconv.Atoi(string(f[7]))
	if err != nil || pos < 1 {
		return r, sr.errf("position", "bad position %q", f[7])
	}
	r.Pos = pos - 1

	// The file holds sequencing orientation; a '-' strand read is stored
	// reverse-complemented, its qualities reversed.
	bases := make(dna.Sequence, length)
	quals := make([]dna.Quality, length)
	for i := 0; i < length; i++ {
		c := qual[i]
		if c < qualOffset {
			return r, sr.errf("quality", "bad quality character %q", c)
		}
		b, _ := dna.ParseBase(seq[i]) // Ns tolerated as A
		at := i
		if r.Strand == 1 {
			at, b = length-1-i, b.Complement()
		}
		bases[at], quals[at] = b, dna.ClampQuality(int(c)-qualOffset)
	}
	r.Bases = bases
	r.Quals = quals
	return r, nil
}

// readSOAPV1 is ReadSOAP over parseV1.
func readSOAPV1(data string) ([]reads.AlignedRead, string, error) {
	sr := NewSOAPReader(strings.NewReader(data))
	var rs []reads.AlignedRead
	for sr.ls.scan() {
		line := bytes.TrimSpace(sr.ls.bytes())
		if len(line) == 0 {
			continue
		}
		r, err := sr.parseV1(line)
		if err != nil {
			return nil, "", err
		}
		rs = append(rs, r)
	}
	if err := sr.ls.err(); err != nil {
		return nil, "", err
	}
	return rs, sr.Chromosome(), nil
}

// FuzzSOAPParseOracle: on any input, SOAPReader gives the records,
// chromosome and *ParseError (Field, Line, Offset and message) parseV1
// gives.
func FuzzSOAPParseOracle(f *testing.F) {
	for _, s := range []string{
		"read_1\tACGT\tIIII\t1\t4\t+\tc\t1\n",
		"read_2\tACgN\tI!~\x7f\t255\t4\t-\tchr1\t9\r\nread_3\tA\tI\t1\t1\t-\tchr1\t10\n",
		"read_-9223372036854775808\tA\tI\t+1\t+1\t+\tc\t+9223372036854775807\n",
		"read_9223372036854775808\tA\tI\t1\t1\t+\tc\t1\n",
		"read_1\tACGT\tII\x1fI\t1\t4\t-\tc\t1\n",
		"read_1\tACGT\tIIII\t0\t4\t+\tc\t1\n",
		"read_1\tACGT\tIIII\t1\t4\t+\tc\t0\n",
		"read_1\tACGT\tIIII\t1\t4\t*\tc\t1\n",
		"read_1\tACGT\tIIII\t1\t4\t+\tc\t1\textra\n",
		"a\tb\tc\n", "", "\n \n\t\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) >= maxLineBytes {
			return // a line this long ends the stream with bufio.ErrTooLong on both sides
		}
		want, wantChr, wantErr := readSOAPV1(data)
		got, gotChr, err := ReadSOAP(strings.NewReader(data))
		if wantErr != nil {
			var pe, wpe *ParseError
			if !errors.As(err, &pe) || !errors.As(wantErr, &wpe) || *pe != *wpe {
				t.Fatalf("input %q:\n got error  %v\n want error %v", data, err, wantErr)
			}
			return
		}
		if err != nil {
			t.Fatalf("input %q: unexpected error %v", data, err)
		}
		if gotChr != wantChr || !reflect.DeepEqual(got, want) {
			t.Fatalf("input %q:\n got  %q %+v\n want %q %+v", data, gotChr, got, wantChr, want)
		}
	})
}

// appendTextV1 appends the tab-separated text encoding of r to buf.
// RankSumP uses five decimals and CopyNum three, like SOAPsnp's
// fixed-point output.
func appendTextV1(r *Row, buf []byte) []byte {
	buf = append(buf, r.Chr...)
	buf = append(buf, '\t')
	buf = strconv.AppendInt(buf, r.Pos, 10)
	buf = append(buf, '\t', r.Ref, '\t', r.Genotype, '\t')
	buf = strconv.AppendUint(buf, uint64(r.Quality), 10)
	buf = append(buf, '\t', r.BestBase, '\t')
	buf = strconv.AppendUint(buf, uint64(r.AvgQualBest), 10)
	buf = append(buf, '\t')
	buf = strconv.AppendUint(buf, uint64(r.CountBest), 10)
	buf = append(buf, '\t')
	buf = strconv.AppendUint(buf, uint64(r.CountUniqBest), 10)
	buf = append(buf, '\t', r.SecondBase, '\t')
	buf = strconv.AppendUint(buf, uint64(r.AvgQualSecond), 10)
	buf = append(buf, '\t')
	buf = strconv.AppendUint(buf, uint64(r.CountSecond), 10)
	buf = append(buf, '\t')
	buf = strconv.AppendUint(buf, uint64(r.CountUniqSecond), 10)
	buf = append(buf, '\t')
	buf = strconv.AppendUint(buf, uint64(r.Depth), 10)
	buf = append(buf, '\t')
	buf = appendFixedV1(buf, r.RankSumP, rankSumScale)
	buf = append(buf, '\t')
	buf = appendFixedV1(buf, r.CopyNum, copyNumScale)
	buf = append(buf, '\t')
	buf = strconv.AppendUint(buf, uint64(r.IsDbSNP), 10)
	buf = append(buf, '\n')
	return buf
}

// appendFixedV1 appends v in fixed-point notation with log10(scale) decimals,
// exactly as strconv.AppendFloat(buf, v, 'f', decimals, 64) does; scale is
// a power of ten, at most 1e5. QuantizeRow has made every value that
// reaches a writer the float nearest to k/scale for an integer k, and the
// digits of such a value are the digits of k: below 2^36 it lies within
// 2^-18 of k/scale, far nearer than half a unit of the last decimal, so
// the correctly rounded expansion strconv computes is k itself. Printing k
// costs two integer conversions where strconv takes its arbitrary-
// precision path for every 'f' format with a fixed number of decimals. A
// value that is not such a k/scale falls back to strconv.
func appendFixedV1(buf []byte, v float64, scale uint64) []byte {
	if math.Float64bits(v) < fixedLimitBits {
		k := uint64(v*float64(scale) + 0.5)
		if float64(k)/float64(scale) == v {
			buf = strconv.AppendUint(buf, k/scale, 10)
			buf = append(buf, '.')
			frac := k % scale
			for d := scale / 10; d > 0; d /= 10 {
				buf = append(buf, byte('0'+frac/d%10))
			}
			return buf
		}
	}
	decimals := 0
	for d := scale; d > 1; d /= 10 {
		decimals++
	}
	return strconv.AppendFloat(buf, v, 'f', decimals, 64)
}

// FuzzRowTextOracle: a row's text, alone (appendText) and in a run of
// rows at consecutive positions through a ResultWriter, is appendTextV1's
// to the byte — for any field values, fixed-point columns that are not
// quantized, NaN and Inf among them, and positions at the ends of the
// int64 range.
func FuzzRowTextOracle(f *testing.F) {
	r := sampleRow()
	f.Add(r.Chr, r.Pos, r.Quality, r.CountBest, r.Depth, math.Float64bits(r.RankSumP), math.Float64bits(r.CopyNum), r.IsDbSNP, uint8(3), true)
	f.Add("chr1", int64(99), uint8(255), uint16(65535), uint16(9), math.Float64bits(0.12345), math.Float64bits(1.5), uint8(1), uint8(4), true)
	f.Add("", int64(-1), uint8(0), uint16(0), uint16(0), math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)), uint8(200), uint8(3), false)
	f.Add("x", int64(math.MaxInt64-1), uint8(7), uint16(10), uint16(100), math.Float64bits(1<<36), math.Float64bits(0.1+0.2), uint8(0), uint8(3), true)
	f.Add("y", int64(999999), uint8(99), uint16(1000), uint16(10000), math.Float64bits(math.Copysign(0, -1)), math.Float64bits(5e-324), uint8(0), uint8(2), true)
	f.Fuzz(func(t *testing.T, chr string, pos int64, qual uint8, count, depth uint16, rank, copyNum uint64, db, n uint8, quantize bool) {
		row := Row{
			Chr: chr, Pos: pos, Ref: 'A', Genotype: 'R', Quality: qual, BestBase: 'G', AvgQualBest: qual / 2,
			CountBest: count, CountUniqBest: count / 3, SecondBase: 'N', AvgQualSecond: qual / 5,
			CountSecond: depth / 7, CountUniqSecond: depth / 11, Depth: depth,
			RankSumP: math.Float64frombits(rank), CopyNum: math.Float64frombits(copyNum), IsDbSNP: db,
		}
		if quantize {
			QuantizeRow(&row)
		}
		if got, want := string(row.appendText(nil)), string(appendTextV1(&row, nil)); got != want {
			t.Fatalf("appendText:\n got  %q\n want %q", got, want)
		}
		requireWriterMatchesV1(t, row, pos, int(n%6))
	})
}

// requireWriterMatchesV1 writes n copies of row through a ResultWriter at
// positions from, from+1, ... (wrapping past math.MaxInt64), the fourth
// repeating from, and compares the text with appendTextV1's.
func requireWriterMatchesV1(t *testing.T, row Row, from int64, n int) {
	t.Helper()
	var got bytes.Buffer
	var want []byte
	rw := NewResultWriter(&got)
	for i := 0; i < n; i++ {
		row.Pos = from + int64(i)
		if i == 3 {
			row.Pos = from
		}
		want = appendTextV1(&row, want)
		if err := rw.Write(&row); err != nil {
			t.Fatal(err)
		}
	}
	if err := rw.Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("ResultWriter from %d:\n got  %q\n want %q", from, got.Bytes(), want)
	}
}

// TestRowTextPositionRuns walks a ResultWriter through runs of positions
// whose text gains a digit, and over both ends of the int64 range.
func TestRowTextPositionRuns(t *testing.T) {
	row := sampleRow()
	QuantizeRow(&row)
	for _, from := range []int64{1, 8, 95, 995, 99_999_995, math.MaxInt64 - 3, math.MinInt64, -3, 0} {
		requireWriterMatchesV1(t, row, from, 3)
		requireWriterMatchesV1(t, row, from+3, 5)
	}
}

// benchRows is one window's worth of rows at consecutive positions, the
// shape a ResultWriter sees from an engine.
func benchRows() []Row {
	rows := make([]Row, 4096)
	for i := range rows {
		r := sampleRow()
		r.Pos = 1_234_567 + int64(i)
		r.Depth = uint16(i % 23)
		r.CountBest = uint16(i % 19)
		r.CopyNum = float64(r.Depth) / 9.7
		r.RankSumP = float64(i%1000) / 997
		QuantizeRow(&r)
		rows[i] = r
	}
	return rows
}

// BenchmarkResultWriter and BenchmarkResultWriterV1 print the same window
// with the row printer and with appendTextV1.
func BenchmarkResultWriter(b *testing.B) {
	rows := benchRows()
	rw := NewResultWriter(io.Discard)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			rw.Write(&rows[j])
		}
	}
	rw.Flush()
}

func BenchmarkResultWriterV1(b *testing.B) {
	rows := benchRows()
	bw := bufio.NewWriterSize(io.Discard, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range rows {
			bw.Write(appendTextV1(&rows[j], bw.AvailableBuffer()))
		}
	}
	bw.Flush()
}
