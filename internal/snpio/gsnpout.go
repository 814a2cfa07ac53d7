package snpio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync/atomic"

	"gsnp/internal/compress"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/par"
)

// GSNP compressed output container (Section V-B of the paper). The result
// table is compressed column by column, one block per processing window:
//
//   - chromosome name and site IDs: stored once per block as (name, start,
//     count) — sites are consecutive;
//   - base-type columns (reference, best base): two bits per base;
//   - SNP-related columns (genotype, dbSNP flag, rank-sum p): difference
//     coded against their overwhelmingly common default;
//   - second-allele columns (second base, its quality/counts): sparse,
//     storing only non-default entries;
//   - six quality-related columns (consensus quality, avg quality best,
//     count best, count-uniq best, depth, copy number): RLE-DICT, the
//     two-level run-length + dictionary codec.
//
// Stream layout: a magic header, then length-prefixed blocks, so the file
// can be decompressed block by block in memory by multiple passes, as the
// paper's decompression tools do.

// gsnpMagic identifies the compressed output stream.
var gsnpMagic = []byte("GSNPv1\n")

// maxBlockBytes bounds a single block's serialized size, so a corrupted
// length prefix cannot demand an arbitrary allocation.
const maxBlockBytes = 1 << 28

// rankSumScale and copyNumScale quantize the two fixed-point columns,
// matching the 5- and 3-decimal text output.
const (
	rankSumScale    = 100000
	copyNumScale    = 1000
	rankSumDecimals = 5
	copyNumDecimals = 3
)

// QuantizeRow rounds the fixed-point columns of r to their output
// precision (five decimals for RankSumP, three for CopyNum) so that the
// text and compressed binary encodings of a row are exactly equivalent.
func QuantizeRow(r *Row) {
	if r.RankSumP != 1 { // every homozygous call's p-value, already on the grid
		r.RankSumP = math.Round(r.RankSumP*rankSumScale) / rankSumScale
	}
	r.CopyNum = math.Round(r.CopyNum*copyNumScale) / copyNumScale
}

// BlockWriter writes the compressed result container.
type BlockWriter struct {
	bw *bufio.Writer
	// Dev selects the GPU path for the six RLE-DICT columns when non-nil,
	// as GSNP compresses output on the device; output bytes are identical
	// either way.
	dev    *gpu.Device
	wrote  bool
	blocks int

	// Column staging and the assembled payload of the block being
	// written. Grow-only, like gsnp.Arena: capacity persists from one
	// window's block to the next.
	cols    blockCols
	payload []byte
}

// blockCols holds one block's rows transposed into columns.
type blockCols struct {
	ref, best []uint8
	geno      []uint32 // 0 = hom-ref default, else IUPAC byte
	second    []uint32
	avgQ2     []uint32
	cnt2      []uint32
	uniq2     []uint32
	rank      []uint32
	db        []uint32
	// rleDict are the six quality-related columns, in payload order:
	// consensus quality, avg quality best, count best, count-uniq best,
	// depth, copy number.
	rleDict [6][]uint32
}

const (
	colQual = iota
	colAvgQ1
	colCnt1
	colUniq1
	colDepth
	colCopy
)

// grow returns s with length n, reusing capacity when possible. Contents
// are unspecified; every column is overwritten in full.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

func (c *blockCols) resize(n int) {
	c.ref, c.best = grow(c.ref, n), grow(c.best, n)
	for _, col := range []*[]uint32{&c.geno, &c.second, &c.avgQ2, &c.cnt2, &c.uniq2, &c.rank, &c.db} {
		*col = grow(*col, n)
	}
	for i := range c.rleDict {
		c.rleDict[i] = grow(c.rleDict[i], n)
	}
}

// NewBlockWriter creates a CPU-compressing writer.
func NewBlockWriter(w io.Writer) *BlockWriter {
	return &BlockWriter{bw: bufio.NewWriterSize(w, 1<<20)}
}

// NewBlockWriterGPU creates a writer that compresses the RLE-DICT columns
// on the simulated device.
func NewBlockWriterGPU(w io.Writer, dev *gpu.Device) *BlockWriter {
	return &BlockWriter{bw: bufio.NewWriterSize(w, 1<<20), dev: dev}
}

// Blocks returns the number of blocks written.
func (w *BlockWriter) Blocks() int { return w.blocks }

// encodeRLEDict encodes the six quality-related columns. On the device
// each column is a chain of dependent launches (run flags, scan, scatter,
// then dictionary build + search for the run values and again for the run
// lengths: 17 of them when both dictionaries come from a presence table,
// hundreds when a wide-range column is sorted), most too small to be
// worth spreading over the host's cores — but the six chains are
// independent, so they run on up to GOMAXPROCS goroutines, joined before
// the payload is assembled in column order. The encoded bytes do
// not depend on the interleaving, and neither do the device's counters,
// which are sums over the launches.
func (w *BlockWriter) encodeRLEDict(cols *[6][]uint32) (enc [6][]byte) {
	encode, workers := compress.RLEDictEncode, 1
	if w.dev != nil {
		encode = func(col []uint32) []byte { return compress.RLEDictEncodeGPU(w.dev, col) }
		workers = min(runtime.GOMAXPROCS(0), len(cols))
	}
	if workers <= 1 {
		for i, col := range cols {
			enc[i] = encode(col)
		}
		return enc
	}
	// Workers claim columns through a shared cursor. A kernel panic comes
	// out of Do in WriteBlock's caller, which may quarantine the window.
	var next atomic.Int32
	par.Do(workers, func(int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= len(cols) {
				return
			}
			enc[i] = encode(cols[i])
		}
	})
	return enc
}

// baseCode converts a base letter to its 2-bit code; N and other letters
// map to code 0 (they cannot appear in the two packed columns by
// construction: reference and best base are always ACGT here).
func baseCode(letter byte) uint8 {
	b, ok := dna.ParseBase(letter)
	if !ok {
		return 0
	}
	return uint8(b)
}

// secondCode maps the second-base column to 0..4 with 4 = absent (N).
func secondCode(letter byte) uint32 {
	b, ok := dna.ParseBase(letter)
	if !ok {
		return 4
	}
	return uint32(b)
}

var secondLetters = [5]byte{'A', 'C', 'G', 'T', 'N'}

// WriteBlock compresses and appends one window of rows. All rows must
// belong to one chromosome and occupy consecutive positions.
func (w *BlockWriter) WriteBlock(rows []Row) error {
	if len(rows) == 0 {
		return nil
	}
	if !w.wrote {
		if _, err := w.bw.Write(gsnpMagic); err != nil {
			return err
		}
		w.wrote = true
	}
	chr := rows[0].Chr
	start := rows[0].Pos
	for i := range rows {
		if rows[i].Chr != chr {
			return fmt.Errorf("snpio: block mixes chromosomes %q and %q", chr, rows[i].Chr)
		}
		if rows[i].Pos != start+int64(i) {
			return fmt.Errorf("snpio: block positions not consecutive at index %d", i)
		}
	}

	n := len(rows)
	c := &w.cols
	c.resize(n)
	rd := &c.rleDict
	for i := range rows {
		r := &rows[i]
		c.ref[i] = baseCode(r.Ref)
		c.best[i] = baseCode(r.BestBase)
		c.geno[i] = 0
		if r.Genotype != r.Ref {
			c.geno[i] = uint32(r.Genotype)
		}
		rd[colQual][i] = uint32(r.Quality)
		rd[colAvgQ1][i] = uint32(r.AvgQualBest)
		rd[colCnt1][i] = uint32(r.CountBest)
		rd[colUniq1][i] = uint32(r.CountUniqBest)
		c.second[i] = secondCode(r.SecondBase)
		c.avgQ2[i] = uint32(r.AvgQualSecond)
		c.cnt2[i] = uint32(r.CountSecond)
		c.uniq2[i] = uint32(r.CountUniqSecond)
		rd[colDepth][i] = uint32(r.Depth)
		c.rank[i] = uint32(math.Round(r.RankSumP * rankSumScale))
		rd[colCopy][i] = uint32(math.Round(r.CopyNum * copyNumScale))
		c.db[i] = uint32(r.IsDbSNP)
	}
	enc := w.encodeRLEDict(rd)

	payload := w.payload[:0]
	payload = appendUvarint(payload, uint64(len(chr)))
	payload = append(payload, chr...)
	payload = appendUvarint(payload, uint64(start))
	payload = appendUvarint(payload, uint64(n))
	payload = append(payload, compress.Pack2Bit(c.ref)...)
	payload = append(payload, compress.SparseEncode(c.geno, 0)...)
	payload = append(payload, enc[colQual]...)
	payload = append(payload, compress.Pack2Bit(c.best)...)
	payload = append(payload, enc[colAvgQ1]...)
	payload = append(payload, enc[colCnt1]...)
	payload = append(payload, enc[colUniq1]...)
	payload = append(payload, compress.SparseEncode(c.second, 4)...)
	payload = append(payload, compress.SparseEncode(c.avgQ2, 0)...)
	payload = append(payload, compress.SparseEncode(c.cnt2, 0)...)
	payload = append(payload, compress.SparseEncode(c.uniq2, 0)...)
	payload = append(payload, enc[colDepth]...)
	payload = append(payload, compress.SparseEncode(c.rank, rankSumScale)...)
	payload = append(payload, enc[colCopy]...)
	payload = append(payload, compress.SparseEncode(c.db, 0)...)
	w.payload = payload

	frame := appendUvarint(nil, uint64(len(payload)))
	if _, err := w.bw.Write(frame); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.blocks++
	return nil
}

// Flush completes the stream.
func (w *BlockWriter) Flush() error { return w.bw.Flush() }

// appendUvarint appends a varint to buf.
func appendUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// BlockReader streams blocks out of the compressed container, the
// decompression API of Section V-B: each block decompresses independently
// in memory.
type BlockReader struct {
	br     *bufio.Reader
	header bool
}

// NewBlockReader wraps r.
func NewBlockReader(r io.Reader) *BlockReader {
	return &BlockReader{br: bufio.NewReaderSize(r, 1<<20)}
}

// NextBlock decompresses the next window of rows, returning io.EOF at the
// end of the stream.
func (br *BlockReader) NextBlock() ([]Row, error) {
	if !br.header {
		head := make([]byte, len(gsnpMagic))
		if _, err := io.ReadFull(br.br, head); err != nil {
			if err == io.ErrUnexpectedEOF {
				return nil, fmt.Errorf("snpio: truncated GSNP header")
			}
			return nil, err
		}
		if string(head) != string(gsnpMagic) {
			return nil, fmt.Errorf("snpio: bad magic %q, not a GSNP output file", head)
		}
		br.header = true
	}
	size, err := binary.ReadUvarint(br.br)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, io.EOF
		}
		return nil, err
	}
	if size > maxBlockBytes {
		return nil, fmt.Errorf("snpio: block claims %d bytes (limit %d)", size, maxBlockBytes)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(br.br, payload); err != nil {
		return nil, fmt.Errorf("snpio: truncated block: %v", err)
	}
	return decodeBlock(payload)
}

// decodeBlock inverts WriteBlock's payload encoding.
func decodeBlock(p []byte) ([]Row, error) {
	nameLen, off, err := uvarintAt(p, 0)
	if err != nil {
		return nil, err
	}
	if off+int(nameLen) > len(p) {
		return nil, fmt.Errorf("snpio: truncated chromosome name")
	}
	chr := string(p[off : off+int(nameLen)])
	off += int(nameLen)
	start64, off, err := uvarintAt(p, off)
	if err != nil {
		return nil, err
	}
	n64, off, err := uvarintAt(p, off)
	if err != nil {
		return nil, err
	}
	n := int(n64)

	next2bit := func() ([]uint8, error) {
		vals, m, err := compress.Unpack2Bit(p[off:])
		off += m
		return vals, err
	}
	nextSparse := func() ([]uint32, error) {
		vals, m, err := compress.SparseDecode(p[off:])
		off += m
		return vals, err
	}
	nextRLED := func() ([]uint32, error) {
		vals, m, err := compress.RLEDictDecode(p[off:])
		off += m
		return vals, err
	}

	refCol, err := next2bit()
	if err != nil {
		return nil, err
	}
	genoCol, err := nextSparse()
	if err != nil {
		return nil, err
	}
	qualCol, err := nextRLED()
	if err != nil {
		return nil, err
	}
	bestCol, err := next2bit()
	if err != nil {
		return nil, err
	}
	avgQ1Col, err := nextRLED()
	if err != nil {
		return nil, err
	}
	cnt1Col, err := nextRLED()
	if err != nil {
		return nil, err
	}
	uniq1Col, err := nextRLED()
	if err != nil {
		return nil, err
	}
	secondCol, err := nextSparse()
	if err != nil {
		return nil, err
	}
	avgQ2Col, err := nextSparse()
	if err != nil {
		return nil, err
	}
	cnt2Col, err := nextSparse()
	if err != nil {
		return nil, err
	}
	uniq2Col, err := nextSparse()
	if err != nil {
		return nil, err
	}
	depthCol, err := nextRLED()
	if err != nil {
		return nil, err
	}
	rankCol, err := nextSparse()
	if err != nil {
		return nil, err
	}
	copyCol, err := nextRLED()
	if err != nil {
		return nil, err
	}
	dbCol, err := nextSparse()
	if err != nil {
		return nil, err
	}

	for name, col := range map[string]int{
		"ref": len(refCol), "geno": len(genoCol), "qual": len(qualCol),
		"best": len(bestCol), "avgQ1": len(avgQ1Col), "cnt1": len(cnt1Col),
		"uniq1": len(uniq1Col), "second": len(secondCol), "avgQ2": len(avgQ2Col),
		"cnt2": len(cnt2Col), "uniq2": len(uniq2Col), "depth": len(depthCol),
		"rank": len(rankCol), "copy": len(copyCol), "db": len(dbCol),
	} {
		if col != n {
			return nil, fmt.Errorf("snpio: column %s has %d entries, want %d", name, col, n)
		}
	}

	rows := make([]Row, n)
	for i := range rows {
		r := &rows[i]
		r.Chr = chr
		r.Pos = int64(start64) + int64(i)
		r.Ref = dna.Base(refCol[i]).Byte()
		if genoCol[i] == 0 {
			r.Genotype = r.Ref
		} else {
			r.Genotype = byte(genoCol[i])
		}
		r.Quality = uint8(qualCol[i])
		r.BestBase = dna.Base(bestCol[i]).Byte()
		r.AvgQualBest = uint8(avgQ1Col[i])
		r.CountBest = uint16(cnt1Col[i])
		r.CountUniqBest = uint16(uniq1Col[i])
		if secondCol[i] > 4 {
			return nil, fmt.Errorf("snpio: bad second-base code %d", secondCol[i])
		}
		r.SecondBase = secondLetters[secondCol[i]]
		r.AvgQualSecond = uint8(avgQ2Col[i])
		r.CountSecond = uint16(cnt2Col[i])
		r.CountUniqSecond = uint16(uniq2Col[i])
		r.Depth = uint16(depthCol[i])
		r.RankSumP = float64(rankCol[i]) / rankSumScale
		r.CopyNum = float64(copyCol[i]) / copyNumScale
		r.IsDbSNP = uint8(dbCol[i])
	}
	return rows, nil
}

// uvarintAt reads a varint at offset off of p.
func uvarintAt(p []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(p[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("snpio: malformed varint at offset %d", off)
	}
	return v, off + n, nil
}

// ReadAllBlocks decompresses an entire container.
func ReadAllBlocks(r io.Reader) ([]Row, error) {
	br := NewBlockReader(r)
	var rows []Row
	for {
		blk, err := br.NextBlock()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, err
		}
		rows = append(rows, blk...)
	}
}
