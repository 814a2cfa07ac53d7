package compress

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// putUvarint appends a varint to buf.
func putUvarint(buf []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(buf, tmp[:n]...)
}

// getUvarint reads a varint, returning the value and the bytes consumed.
func getUvarint(buf []byte) (uint64, int, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, fmt.Errorf("compress: truncated or malformed varint")
	}
	return v, n, nil
}

// RLEEncode splits vals into maximal runs, returning parallel run-value and
// run-length arrays — the first level of the RLE-DICT codec.
func RLEEncode(vals []uint32) (values, lengths []uint32) {
	for i := 0; i < len(vals); {
		j := i
		for j < len(vals) && vals[j] == vals[i] {
			j++
		}
		values = append(values, vals[i])
		lengths = append(lengths, uint32(j-i))
		i = j
	}
	return values, lengths
}

// MaxDecodeElements bounds the number of elements any decoder will
// materialise from one block. Encoded streams carry their element counts
// as varints, so without a bound a corrupted or hostile header could
// demand arbitrarily large allocations before validation catches it.
const MaxDecodeElements = 1 << 27

// RLEDecode expands run-value/run-length arrays back to the flat sequence.
func RLEDecode(values, lengths []uint32) []uint32 {
	out, _ := rleDecodeLimit(values, lengths, -1)
	return out
}

// rleDecodeLimit expands runs, aborting once the output would exceed
// limit elements (limit < 0 means unbounded, used by the in-process API).
func rleDecodeLimit(values, lengths []uint32, limit int) ([]uint32, error) {
	var n uint64
	for _, l := range lengths {
		n += uint64(l)
		if limit >= 0 && n > uint64(limit) {
			return nil, fmt.Errorf("compress: RLE expansion of %d elements exceeds limit %d", n, limit)
		}
	}
	out := make([]uint32, 0, n)
	for i, v := range values {
		for k := uint32(0); k < lengths[i]; k++ {
			out = append(out, v)
		}
	}
	return out, nil
}

// buildDict returns the sorted distinct values of vals.
func buildDict(vals []uint32) []uint32 {
	seen := make(map[uint32]struct{}, 64)
	for _, v := range vals {
		seen[v] = struct{}{}
	}
	dict := make([]uint32, 0, len(seen))
	for v := range seen {
		dict = append(dict, v)
	}
	sort.Slice(dict, func(i, j int) bool { return dict[i] < dict[j] })
	return dict
}

// dictIndex finds v in the sorted dict by binary search; v must be present.
func dictIndex(dict []uint32, v uint32) uint32 {
	lo, hi := 0, len(dict)
	for lo < hi {
		mid := (lo + hi) / 2
		if dict[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint32(lo)
}

// appendDictBlock serialises one dictionary-encoded array: the dictionary
// (delta varints over the sorted values), the index bit width, and the
// bit-packed indexes.
func appendDictBlock(buf []byte, vals []uint32, dict []uint32, indexOf func(uint32) uint32) []byte {
	buf = putUvarint(buf, uint64(len(dict)))
	prev := uint32(0)
	for i, v := range dict {
		d := v - prev
		if i == 0 {
			d = v
		}
		buf = putUvarint(buf, uint64(d))
		prev = v
	}
	width := bitWidth(uint32(len(dict) - 1))
	if len(dict) == 1 {
		width = 1
	}
	buf = append(buf, byte(width))
	var bw BitWriter
	for _, v := range vals {
		bw.WriteBits(indexOf(v), width)
	}
	packed := bw.Bytes()
	buf = putUvarint(buf, uint64(len(packed)))
	return append(buf, packed...)
}

// DictEncode serialises vals with dictionary encoding: distinct values are
// collected into a sorted dictionary and each element is replaced by its
// bit-packed dictionary index — the second level of RLE-DICT.
func DictEncode(vals []uint32) []byte {
	dict := buildDict(vals)
	buf := putUvarint(nil, uint64(len(vals)))
	if len(vals) == 0 {
		return buf
	}
	return appendDictBlock(buf, vals, dict, func(v uint32) uint32 { return dictIndex(dict, v) })
}

// DictDecode inverts DictEncode, returning the values and bytes consumed.
func DictDecode(buf []byte) ([]uint32, int, error) {
	n64, off, err := getUvarint(buf)
	if err != nil {
		return nil, 0, err
	}
	if n64 > MaxDecodeElements {
		return nil, 0, fmt.Errorf("compress: dictionary block claims %d elements (limit %d)", n64, MaxDecodeElements)
	}
	n := int(n64)
	if n == 0 {
		return nil, off, nil
	}
	vals, m, err := decodeDictBlock(buf[off:], n)
	return vals, off + m, err
}

// decodeDictBlock parses one dictionary block holding n elements.
func decodeDictBlock(buf []byte, n int) ([]uint32, int, error) {
	ds64, off, err := getUvarint(buf)
	if err != nil {
		return nil, 0, err
	}
	dictSize := int(ds64)
	if dictSize == 0 {
		return nil, 0, fmt.Errorf("compress: empty dictionary for %d elements", n)
	}
	if dictSize > n || ds64 > MaxDecodeElements {
		return nil, 0, fmt.Errorf("compress: dictionary of %d entries for %d elements", dictSize, n)
	}
	dict := make([]uint32, dictSize)
	prev := uint64(0)
	for i := range dict {
		d, m, err := getUvarint(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		off += m
		if i == 0 {
			prev = d
		} else {
			prev += d
		}
		dict[i] = uint32(prev)
	}
	if off >= len(buf) {
		return nil, 0, fmt.Errorf("compress: truncated dictionary block")
	}
	width := uint(buf[off])
	off++
	if width == 0 || width > 32 {
		return nil, 0, fmt.Errorf("compress: bad index width %d", width)
	}
	packedLen64, m, err := getUvarint(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += m
	if packedLen64 > uint64(len(buf)-off) { // compared unsigned: a length past 2^63 is negative as an int
		return nil, 0, fmt.Errorf("compress: truncated packed indexes")
	}
	packedLen := int(packedLen64)
	br := NewBitReader(buf[off : off+packedLen])
	out := make([]uint32, n)
	for i := range out {
		idx := br.ReadBits(width)
		if int(idx) >= dictSize {
			return nil, 0, fmt.Errorf("compress: index %d out of dictionary range %d", idx, dictSize)
		}
		out[i] = dict[idx]
	}
	return out, off + packedLen, nil
}

// RLEDictEncode applies the paper's two-level codec for quality-related
// columns: run-length encode, then dictionary-encode both the run-value
// and run-length arrays.
func RLEDictEncode(vals []uint32) []byte {
	values, lengths := RLEEncode(vals)
	buf := putUvarint(nil, uint64(len(vals)))
	buf = putUvarint(buf, uint64(len(values)))
	if len(values) == 0 {
		return buf
	}
	vd := buildDict(values)
	buf = appendDictBlock(buf, values, vd, func(v uint32) uint32 { return dictIndex(vd, v) })
	ld := buildDict(lengths)
	buf = appendDictBlock(buf, lengths, ld, func(v uint32) uint32 { return dictIndex(ld, v) })
	return buf
}

// RLEDictDecode inverts RLEDictEncode, returning the values and the bytes
// consumed.
func RLEDictDecode(buf []byte) ([]uint32, int, error) {
	n64, off, err := getUvarint(buf)
	if err != nil {
		return nil, 0, err
	}
	if n64 > MaxDecodeElements {
		return nil, 0, fmt.Errorf("compress: RLE-DICT block claims %d elements (limit %d)", n64, MaxDecodeElements)
	}
	runs64, m, err := getUvarint(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += m
	if runs64 > n64 {
		return nil, 0, fmt.Errorf("compress: %d runs for %d elements", runs64, n64)
	}
	runs := int(runs64)
	if runs == 0 {
		if n64 != 0 {
			return nil, 0, fmt.Errorf("compress: zero runs for %d elements", n64)
		}
		return nil, off, nil
	}
	values, m, err := decodeDictBlock(buf[off:], runs)
	if err != nil {
		return nil, 0, err
	}
	off += m
	lengths, m, err := decodeDictBlock(buf[off:], runs)
	if err != nil {
		return nil, 0, err
	}
	off += m
	out, err := rleDecodeLimit(values, lengths, int(n64))
	if err != nil {
		return nil, 0, err
	}
	if len(out) != int(n64) {
		return nil, 0, fmt.Errorf("compress: RLE-DICT expanded to %d elements, want %d", len(out), n64)
	}
	return out, off, nil
}

// Pack2Bit packs values in 0..3 (base codes) four to a byte — the paper's
// two-bits-per-base encoding for base-type columns.
func Pack2Bit(vals []uint8) []byte {
	buf := putUvarint(nil, uint64(len(vals)))
	body := make([]byte, (len(vals)+3)/4)
	for i, v := range vals {
		body[i>>2] |= (v & 3) << uint((i&3)*2)
	}
	return append(buf, body...)
}

// Unpack2Bit inverts Pack2Bit, returning the values and bytes consumed.
func Unpack2Bit(buf []byte) ([]uint8, int, error) {
	n64, off, err := getUvarint(buf)
	if err != nil {
		return nil, 0, err
	}
	// Bound before any arithmetic: n elements need ceil(n/4) body bytes,
	// so n can never exceed 4x the remaining input.
	if n64 > uint64(len(buf))*4 {
		return nil, 0, fmt.Errorf("compress: 2-bit block claims %d elements in %d bytes", n64, len(buf))
	}
	n := int(n64)
	body := (n + 3) / 4
	if off+body > len(buf) {
		return nil, 0, fmt.Errorf("compress: truncated 2-bit block")
	}
	out := make([]uint8, n)
	for i := range out {
		out[i] = buf[off+(i>>2)] >> uint((i&3)*2) & 3
	}
	return out, off + body, nil
}

// SparseEncode stores only the elements that differ from the default —
// the paper's difference/sparse coding for SNP-related and second-allele
// columns. Exception positions are delta-varint coded.
func SparseEncode(vals []uint32, def uint32) []byte {
	buf := putUvarint(nil, uint64(len(vals)))
	buf = putUvarint(buf, uint64(def))
	var idx []int
	for i, v := range vals {
		if v != def {
			idx = append(idx, i)
		}
	}
	buf = putUvarint(buf, uint64(len(idx)))
	prev := 0
	for _, i := range idx {
		buf = putUvarint(buf, uint64(i-prev))
		prev = i
		buf = putUvarint(buf, uint64(vals[i]))
	}
	return buf
}

// SparseDecode inverts SparseEncode, returning the values and bytes
// consumed.
func SparseDecode(buf []byte) ([]uint32, int, error) {
	n64, off, err := getUvarint(buf)
	if err != nil {
		return nil, 0, err
	}
	if n64 > MaxDecodeElements {
		return nil, 0, fmt.Errorf("compress: sparse block claims %d elements (limit %d)", n64, MaxDecodeElements)
	}
	def64, m, err := getUvarint(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += m
	k64, m, err := getUvarint(buf[off:])
	if err != nil {
		return nil, 0, err
	}
	off += m
	out := make([]uint32, int(n64))
	for i := range out {
		out[i] = uint32(def64)
	}
	pos := 0
	for e := uint64(0); e < k64; e++ {
		d, m, err := getUvarint(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		off += m
		v, m, err := getUvarint(buf[off:])
		if err != nil {
			return nil, 0, err
		}
		off += m
		if d >= uint64(len(out)-pos) { // compared unsigned: a delta past 2^63 is negative as an int
			return nil, 0, fmt.Errorf("compress: sparse exception %d past %d beyond length %d", d, pos, len(out))
		}
		pos += int(d)
		out[pos] = uint32(v)
	}
	return out, off, nil
}
