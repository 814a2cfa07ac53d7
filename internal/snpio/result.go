package snpio

import (
	"bufio"
	"fmt"
	"io"
	"math"
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

// appendText appends the tab-separated text encoding of r to buf.
// RankSumP uses five decimals and CopyNum three, like SOAPsnp's
// fixed-point output.
func (r *Row) appendText(buf []byte) []byte {
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
	buf = appendFixed(buf, r.RankSumP, rankSumScale)
	buf = append(buf, '\t')
	buf = appendFixed(buf, r.CopyNum, copyNumScale)
	buf = append(buf, '\t')
	buf = strconv.AppendUint(buf, uint64(r.IsDbSNP), 10)
	buf = append(buf, '\n')
	return buf
}

// fixedLimitBits is the bit pattern of 2^36, the bound below which
// appendFixed's integer path is exact. Compared as integers, the patterns
// of non-negative finite floats order like their values and every other
// float — negative, -0, Inf, NaN — has a larger pattern.
const fixedLimitBits = (1023 + 36) << 52

// appendFixed appends v in fixed-point notation with log10(scale) decimals,
// exactly as strconv.AppendFloat(buf, v, 'f', decimals, 64) does; scale is
// a power of ten, at most 1e5. QuantizeRow has made every value that
// reaches a writer the float nearest to k/scale for an integer k, and the
// digits of such a value are the digits of k: below 2^36 it lies within
// 2^-18 of k/scale, far nearer than half a unit of the last decimal, so
// the correctly rounded expansion strconv computes is k itself. Printing k
// costs two integer conversions where strconv takes its arbitrary-
// precision path for every 'f' format with a fixed number of decimals. A
// value that is not such a k/scale falls back to strconv.
func appendFixed(buf []byte, v float64, scale uint64) []byte {
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
	bw *bufio.Writer
	n  int64
}

// NewResultWriter wraps w.
func NewResultWriter(w io.Writer) *ResultWriter {
	return &ResultWriter{bw: bufio.NewWriterSize(w, 1<<20)}
}

// Write emits one row, formatted in place in the buffer's free space (a
// row that does not fit spills to a slice of its own and Write flushes).
func (rw *ResultWriter) Write(r *Row) error {
	_, err := rw.bw.Write(r.appendText(rw.bw.AvailableBuffer()))
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
