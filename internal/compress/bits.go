// Package compress implements the customized compression schemes of GSNP
// (Section V of the paper): run-length encoding, dictionary encoding, the
// two-level RLE-DICT codec for quality-related columns, two-bit packing for
// base columns, sparse and difference coding for SNP-related columns, plus
// a gzip wrapper used as the general-purpose comparator. The RLE-DICT
// encoder also has a GPU implementation built on the simulator's
// reduction/sort/unique/binary-search primitives, as in the paper.
//
// All encoders are deterministic and the GPU encoder produces bytes
// identical to the CPU encoder, so either side can decode the other.
package compress

// BitWriter packs fixed-width little-endian bit fields into a byte slice.
type BitWriter struct {
	buf  []byte
	bits uint64
	n    uint // bits buffered
}

// WriteBits appends the low width bits of v.
func (w *BitWriter) WriteBits(v uint32, width uint) {
	w.bits |= uint64(v&((1<<width)-1)) << w.n
	w.n += width
	for w.n >= 8 {
		w.buf = append(w.buf, byte(w.bits))
		w.bits >>= 8
		w.n -= 8
	}
}

// Bytes flushes any partial byte and returns the packed stream.
func (w *BitWriter) Bytes() []byte {
	if w.n > 0 {
		w.buf = append(w.buf, byte(w.bits))
		w.bits = 0
		w.n = 0
	}
	return w.buf
}

// BitReader unpacks fixed-width bit fields written by BitWriter.
type BitReader struct {
	buf  []byte
	bits uint64
	n    uint
	pos  int
}

// NewBitReader wraps a packed stream.
func NewBitReader(buf []byte) *BitReader { return &BitReader{buf: buf} }

// ReadBits extracts the next width-bit field.
func (r *BitReader) ReadBits(width uint) uint32 {
	for r.n < width {
		var b byte
		if r.pos < len(r.buf) {
			b = r.buf[r.pos]
			r.pos++
		}
		r.bits |= uint64(b) << r.n
		r.n += 8
	}
	v := uint32(r.bits & ((1 << width) - 1))
	r.bits >>= width
	r.n -= width
	return v
}

// bitWidth returns the number of bits needed to represent v (at least 1).
func bitWidth(v uint32) uint {
	w := uint(1)
	for v > 1 {
		v >>= 1
		w++
	}
	return w
}
