package snpio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"

	"gsnp/internal/dna"
)

// Row is one line of the SNP-detection result table. The result of SNP
// detection is a table of 17 columns (Section III-A / V-B of the paper);
// this struct mirrors the consensus (CNS) output of SOAPsnp:
//
//	 1 Chr              chromosome name
//	 2 Pos              1-based site position
//	 3 Ref              reference base
//	 4 Genotype         consensus genotype (IUPAC code)
//	 5 Quality          Phred consensus quality (0-99)
//	 6 BestBase         most supported base
//	 7 AvgQualBest      rounded average quality of BestBase observations
//	 8 CountBest        number of BestBase observations
//	 9 CountUniqBest    ... from uniquely aligned reads only
//	10 SecondBase       second most supported base, or N
//	11 AvgQualSecond    rounded average quality of SecondBase observations
//	12 CountSecond      number of SecondBase observations
//	13 CountUniqSecond  ... from uniquely aligned reads only
//	14 Depth            total aligned bases at the site
//	15 RankSumP         rank-sum test p-value (strand/quality bias)
//	16 CopyNum          estimated copy number (depth / genome mean)
//	17 IsDbSNP          1 when the site appears in the prior file
type Row struct {
	Chr             string
	Pos             int64
	Ref             byte
	Genotype        byte
	Quality         uint8
	BestBase        byte
	AvgQualBest     uint8
	CountBest       uint16
	CountUniqBest   uint16
	SecondBase      byte
	AvgQualSecond   uint8
	CountSecond     uint16
	CountUniqSecond uint16
	Depth           uint16
	RankSumP        float64
	CopyNum         float64
	IsDbSNP         uint8
}

// NColumns is the number of columns of the result table.
const NColumns = 17

// IsSNP reports whether the row calls a non-reference genotype.
func (r *Row) IsSNP() bool {
	ref, ok := dna.ParseBase(r.Ref)
	if !ok {
		return false
	}
	return r.Genotype != dna.HomozygousGenotype(ref).IUPAC()
}

// maxRowText bounds the bytes a row's text takes besides its chromosome
// name while both fixed-point columns take appendFixed's integer path: a
// 20-character position, the twelve small integers and four letters, the
// two fixed-point columns (below 2^36, so at most 11 integer digits) and
// 17 separators come to 110.
const maxRowText = 110

// appendText appends the tab-separated text encoding of r to buf.
func (r *Row) appendText(buf []byte) []byte {
	var t rowText
	return t.append(buf, r)
}

// rowText formats rows, keeping the text of the last position it printed:
// within a window positions are consecutive, and the next one's digits are
// the last one's incremented.
type rowText struct {
	pos    int64
	digits [20]byte // the position's text, right-aligned
	n      int      // its length; 0 before the first row
}

// append appends the text of r to buf. Everything up to the fixed-point
// columns is written at an index into space reserved once per row.
// RankSumP uses five decimals and CopyNum three, like SOAPsnp's fixed-point
// output.
func (t *rowText) append(buf []byte, r *Row) []byte {
	n := len(buf)
	buf = slices.Grow(buf, len(r.Chr)+maxRowText)
	b := buf[n : n+len(r.Chr)+maxRowText]
	i := copy(b, r.Chr)
	b[i] = '\t'
	i = t.putPos(b, i+1, r.Pos)
	b[i], b[i+1], b[i+2], b[i+3], b[i+4] = '\t', r.Ref, '\t', r.Genotype, '\t'
	i = putField(b, i+5, uint16(r.Quality))
	b[i], b[i+1] = r.BestBase, '\t'
	i = putField(b, i+2, uint16(r.AvgQualBest))
	i = putField(b, i, r.CountBest)
	i = putField(b, i, r.CountUniqBest)
	b[i], b[i+1] = r.SecondBase, '\t'
	i = putField(b, i+2, uint16(r.AvgQualSecond))
	i = putField(b, i, r.CountSecond)
	i = putField(b, i, r.CountUniqSecond)
	i = putField(b, i, r.Depth)
	rank, rankExact := fixedUnits(r.RankSumP, rankSumScale)
	copyNum, copyExact := fixedUnits(r.CopyNum, copyNumScale)
	if !rankExact || !copyExact {
		buf = appendFixed(buf[:n+i], r.RankSumP, rankSumScale)
		buf = append(buf, '\t')
		buf = appendFixed(buf, r.CopyNum, copyNumScale)
		buf = append(buf, '\t')
		buf = strconv.AppendUint(buf, uint64(r.IsDbSNP), 10)
		return append(buf, '\n')
	}
	i = putUint(b, i, rank/rankSumScale)
	b[i] = '.'
	i = putFrac(b, i+1, rank%rankSumScale, rankSumDecimals)
	b[i] = '\t'
	i = putUint(b, i+1, copyNum/copyNumScale)
	b[i] = '.'
	i = putFrac(b, i+1, copyNum%copyNumScale, copyNumDecimals)
	b[i] = '\t'
	i = putField(b, i+1, uint16(r.IsDbSNP))
	b[i-1] = '\n' // the row ends here, not with a tab
	return buf[:n+i]
}

// putPos writes pos at b[i:] and returns the index past it. The position
// after the last one printed increments that one's text; any other is
// formatted afresh.
func (t *rowText) putPos(b []byte, i int, pos int64) int {
	if t.n > 0 && pos > 0 && pos-1 == t.pos {
		j := len(t.digits) - 1
		for ; j >= len(t.digits)-t.n && t.digits[j] == '9'; j-- {
			t.digits[j] = '0'
		}
		if j < len(t.digits)-t.n { // all nines: one digit more
			t.n++
			t.digits[j] = '1'
		} else {
			t.digits[j]++
		}
	} else {
		x := uint64(pos)
		if pos < 0 {
			x = -x
		}
		j := formatDigits(&t.digits, x)
		if pos < 0 {
			j--
			t.digits[j] = '-'
		}
		t.n = len(t.digits) - j
	}
	t.pos = pos
	return i + copy(b[i:], t.digits[len(t.digits)-t.n:])
}

// digitPairs holds the two-digit text of 00 to 99.
const digitPairs = "00010203040506070809" +
	"10111213141516171819" +
	"20212223242526272829" +
	"30313233343536373839" +
	"40414243444546474849" +
	"50515253545556575859" +
	"60616263646566676869" +
	"70717273747576777879" +
	"80818283848586878889" +
	"90919293949596979899"

// fieldText packs the text of every v below 256 and a tab into the low four
// bytes of an entry, little-endian, and the text's length above them.
var fieldText = func() (t [256]uint64) {
	for v := range t {
		s := strconv.Itoa(v) + "\t"
		for k := len(s) - 1; k >= 0; k-- {
			t[v] = t[v]<<8 | uint64(s[k])
		}
		t[v] |= uint64(len(s)) << 32
	}
	return t
}()

// putField writes the decimal digits of v and a tab at b[i:] and returns
// the index past them. Below 256 that is one load from fieldText and one
// four-byte store, which may write past the tab into space the row's next
// column takes.
func putField(b []byte, i int, v uint16) int {
	if v < 256 {
		f := fieldText[v]
		binary.LittleEndian.PutUint32(b[i:], uint32(f))
		return i + int(f>>32)
	}
	i = putUint(b, i, uint64(v))
	b[i] = '\t'
	return i + 1
}

// putUint writes the decimal digits of v at b[i:] and returns the index
// past them. Most columns are below 100, one or two digits.
func putUint(b []byte, i int, v uint64) int {
	if v >= 100 {
		var d [20]byte
		return i + copy(b[i:], d[formatDigits(&d, v):])
	}
	if v >= 10 {
		b[i] = digitPairs[2*v]
		i++
	}
	b[i] = digitPairs[2*v+1]
	return i + 1
}

// formatDigits writes the decimal digits of v at the end of d, two at a
// time from digitPairs, and returns the index of the first.
func formatDigits(d *[20]byte, v uint64) int {
	j := len(d)
	for ; v >= 100; v /= 100 {
		k := 2 * (v % 100)
		j -= 2
		d[j], d[j+1] = digitPairs[k], digitPairs[k+1]
	}
	if v >= 10 {
		j -= 2
		d[j], d[j+1] = digitPairs[2*v], digitPairs[2*v+1]
		return j
	}
	j--
	d[j] = byte('0' + v)
	return j
}

// fixedLimitBits is the bit pattern of 2^36, the bound below which
// appendFixed's integer path is exact. Compared as integers, the patterns
// of non-negative finite floats order like their values and every other
// float — negative, -0, Inf, NaN — has a larger pattern.
const fixedLimitBits = (1023 + 36) << 52

// fixedUnits returns k when v is the float nearest to k/scale for an
// integer k below 2^36*scale; scale is a power of ten, at most 1e5.
// QuantizeRow has made every value that reaches a writer such a k/scale,
// and its digits are the digits of k: below 2^36 it lies within 2^-18 of
// k/scale, far nearer than half a unit of the last decimal, so the
// correctly rounded expansion strconv computes is k itself. fixedUnits
// inlines, so the row writer, which passes constant scales, splits k into
// its whole and fractional parts with multiplies.
func fixedUnits(v float64, scale uint64) (k uint64, exact bool) {
	k = uint64(v*float64(scale) + 0.5)
	return k, math.Float64bits(v) < fixedLimitBits && float64(k)/float64(scale) == v
}

// putFrac writes the n low decimal digits of f at b[i:], two at a time
// from digitPairs, and returns the index past them.
func putFrac(b []byte, i int, f uint64, n int) int {
	j := i + n
	for ; j-i >= 2; j -= 2 {
		q := f / 100
		d := 2 * (f - 100*q)
		b[j-2], b[j-1] = digitPairs[d], digitPairs[d+1]
		f = q
	}
	if j > i {
		b[i] = byte('0' + f)
	}
	return i + n
}

// appendFixed appends v in fixed-point notation with log10(scale) decimals,
// exactly as strconv.AppendFloat(buf, v, 'f', decimals, 64) does: the
// digits of k where fixedUnits finds v = k/scale, strconv otherwise (whose
// 'f' format with a fixed number of decimals takes its arbitrary-precision
// path every time).
func appendFixed(buf []byte, v float64, scale uint64) []byte {
	decimals := 0
	for d := scale; d > 1; d /= 10 {
		decimals++
	}
	k, exact := fixedUnits(v, scale)
	if !exact {
		return strconv.AppendFloat(buf, v, 'f', decimals, 64)
	}
	buf = strconv.AppendUint(buf, k/scale, 10)
	buf = append(buf, ".00000"[:1+decimals]...)
	putFrac(buf, len(buf)-decimals, k%scale, decimals)
	return buf
}

// RowWriter is a streaming sink for result rows. ResultWriter (the
// paper's 17-column table) and VCFWriter (VCFv4.2 variant records) both
// satisfy it, letting the engines select the output codec without knowing
// its encoding. Count reports rows actually emitted — a codec may filter
// (VCF skips homozygous-reference rows), so Count can be below the number
// of Write calls.
type RowWriter interface {
	Write(r *Row) error
	Flush() error
	Count() int64
}

// ResultWriter streams result rows as plain text, the SOAPsnp output
// format.
type ResultWriter struct {
	bw   *bufio.Writer
	text rowText
	n    int64
}

// NewResultWriter wraps w.
func NewResultWriter(w io.Writer) *ResultWriter {
	return &ResultWriter{bw: bufio.NewWriterSize(w, 1<<20)}
}

// Write emits one row, formatted in place in the buffer's free space (a
// row that does not fit spills to a slice of its own and Write flushes).
func (rw *ResultWriter) Write(r *Row) error {
	_, err := rw.bw.Write(rw.text.append(rw.bw.AvailableBuffer(), r))
	if err == nil {
		rw.n++
	}
	return err
}

// Flush completes the stream.
func (rw *ResultWriter) Flush() error { return rw.bw.Flush() }

// Count returns the number of rows written.
func (rw *ResultWriter) Count() int64 { return rw.n }

// ParseRow parses one text line of the result table.
func ParseRow(line string) (Row, error) {
	f := strings.Split(strings.TrimRight(line, "\n"), "\t")
	if len(f) != NColumns {
		return Row{}, fmt.Errorf("snpio: result row has %d columns, want %d", len(f), NColumns)
	}
	var r Row
	r.Chr = f[0]
	var err error
	if r.Pos, err = strconv.ParseInt(f[1], 10, 64); err != nil {
		return r, fmt.Errorf("snpio: bad position %q", f[1])
	}
	byteCol := func(s string) (byte, error) {
		if len(s) != 1 {
			return 0, fmt.Errorf("snpio: bad single-character column %q", s)
		}
		return s[0], nil
	}
	if r.Ref, err = byteCol(f[2]); err != nil {
		return r, err
	}
	if r.Genotype, err = byteCol(f[3]); err != nil {
		return r, err
	}
	u8 := func(s string) (uint8, error) {
		v, err := strconv.ParseUint(s, 10, 8)
		return uint8(v), err
	}
	u16 := func(s string) (uint16, error) {
		v, err := strconv.ParseUint(s, 10, 16)
		return uint16(v), err
	}
	if r.Quality, err = u8(f[4]); err != nil {
		return r, fmt.Errorf("snpio: bad quality %q", f[4])
	}
	if r.BestBase, err = byteCol(f[5]); err != nil {
		return r, err
	}
	if r.AvgQualBest, err = u8(f[6]); err != nil {
		return r, fmt.Errorf("snpio: bad avg quality %q", f[6])
	}
	if r.CountBest, err = u16(f[7]); err != nil {
		return r, fmt.Errorf("snpio: bad count %q", f[7])
	}
	if r.CountUniqBest, err = u16(f[8]); err != nil {
		return r, fmt.Errorf("snpio: bad count %q", f[8])
	}
	if r.SecondBase, err = byteCol(f[9]); err != nil {
		return r, err
	}
	if r.AvgQualSecond, err = u8(f[10]); err != nil {
		return r, fmt.Errorf("snpio: bad avg quality %q", f[10])
	}
	if r.CountSecond, err = u16(f[11]); err != nil {
		return r, fmt.Errorf("snpio: bad count %q", f[11])
	}
	if r.CountUniqSecond, err = u16(f[12]); err != nil {
		return r, fmt.Errorf("snpio: bad count %q", f[12])
	}
	if r.Depth, err = u16(f[13]); err != nil {
		return r, fmt.Errorf("snpio: bad depth %q", f[13])
	}
	if r.RankSumP, err = strconv.ParseFloat(f[14], 64); err != nil {
		return r, fmt.Errorf("snpio: bad rank-sum p %q", f[14])
	}
	if r.CopyNum, err = strconv.ParseFloat(f[15], 64); err != nil {
		return r, fmt.Errorf("snpio: bad copy number %q", f[15])
	}
	if r.IsDbSNP, err = u8(f[16]); err != nil {
		return r, fmt.Errorf("snpio: bad dbSNP flag %q", f[16])
	}
	return r, nil
}

// ReadResults parses a whole result table.
func ReadResults(r io.Reader) ([]Row, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var rows []Row
	for sc.Scan() {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		row, err := ParseRow(line)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return rows, nil
}
