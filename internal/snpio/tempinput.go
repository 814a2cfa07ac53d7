package snpio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"gsnp/internal/compress"
	"gsnp/internal/dna"
	"gsnp/internal/reads"
)

// GSNP temporary input format (Section V-A): cal_p_matrix reads the
// original alignment text once and rewrites it compressed, so the second
// pass (read_site) reads roughly one third of the bytes. Reads are batched
// into blocks; within a block, positions are delta-coded, bases packed two
// bits each and quality strings RLE-DICT coded across the whole block.

// tmpMagic identifies the temporary input stream.
var tmpMagic = []byte("GSNPTMP1")

// tmpBlockReads is the number of reads per block.
const tmpBlockReads = 4096

// TempWriter writes the compressed temporary input.
type TempWriter struct {
	bw    *bufio.Writer
	batch []reads.AlignedRead
	chr   string
	wrote bool
	n     int64
}

// NewTempWriter creates a writer for chromosome chr.
func NewTempWriter(w io.Writer, chr string) *TempWriter {
	return &TempWriter{bw: bufio.NewWriterSize(w, 1<<20), chr: chr}
}

// Write buffers one read (reads must arrive position-sorted).
func (tw *TempWriter) Write(r *reads.AlignedRead) error {
	tw.batch = append(tw.batch, *r)
	tw.n++
	if len(tw.batch) >= tmpBlockReads {
		return tw.flushBlock()
	}
	return nil
}

// Count returns the number of reads written.
func (tw *TempWriter) Count() int64 { return tw.n }

// Flush writes any buffered block and completes the stream.
func (tw *TempWriter) Flush() error {
	if err := tw.flushBlock(); err != nil {
		return err
	}
	return tw.bw.Flush()
}

func (tw *TempWriter) flushBlock() error {
	if len(tw.batch) == 0 {
		return nil
	}
	if !tw.wrote {
		if _, err := tw.bw.Write(tmpMagic); err != nil {
			return err
		}
		name := appendUvarint(nil, uint64(len(tw.chr)))
		name = append(name, tw.chr...)
		if _, err := tw.bw.Write(name); err != nil {
			return err
		}
		tw.wrote = true
	}

	n := len(tw.batch)
	var payload []byte
	payload = appendUvarint(payload, uint64(n))
	prev := 0
	var meta []byte
	var baseCodes []uint8
	var quals []uint32
	for i := range tw.batch {
		r := &tw.batch[i]
		meta = appendUvarint(meta, uint64(r.Pos-prev))
		prev = r.Pos
		meta = appendUvarint(meta, uint64(r.ID))
		// Strand and hit count share one uvarint: Hits is a full byte, so
		// the pair needs nine bits, and the caller weighs Hits == 1
		// (uniquely aligned) differently from every other value.
		meta = appendUvarint(meta, uint64(r.Strand)|uint64(r.Hits)<<1)
		meta = appendUvarint(meta, uint64(len(r.Bases)))
		for _, b := range r.Bases {
			baseCodes = append(baseCodes, uint8(b))
		}
		for _, q := range r.Quals {
			quals = append(quals, uint32(q))
		}
	}
	payload = appendUvarint(payload, uint64(len(meta)))
	payload = append(payload, meta...)
	payload = append(payload, compress.Pack2Bit(baseCodes)...)
	payload = append(payload, compress.RLEDictEncode(quals)...)

	frame := appendUvarint(nil, uint64(len(payload)))
	if _, err := tw.bw.Write(frame); err != nil {
		return err
	}
	if _, err := tw.bw.Write(payload); err != nil {
		return err
	}
	tw.batch = tw.batch[:0]
	return nil
}

// TempReader streams reads back out of the temporary input.
type TempReader struct {
	br     *bufio.Reader
	chr    string
	header bool
	buf    []reads.AlignedRead
	pos    int
}

// NewTempReader wraps r.
func NewTempReader(r io.Reader) *TempReader {
	return &TempReader{br: bufio.NewReaderSize(r, 1<<20)}
}

// Chromosome returns the stream's chromosome name (valid after the first
// Next call).
func (tr *TempReader) Chromosome() string { return tr.chr }

// Next returns the next read, or io.EOF.
func (tr *TempReader) Next() (reads.AlignedRead, error) {
	if tr.pos >= len(tr.buf) {
		if err := tr.readBlock(); err != nil {
			return reads.AlignedRead{}, err
		}
	}
	r := tr.buf[tr.pos]
	tr.pos++
	return r, nil
}

func (tr *TempReader) readBlock() error {
	if !tr.header {
		head := make([]byte, len(tmpMagic))
		if _, err := io.ReadFull(tr.br, head); err != nil {
			if err == io.ErrUnexpectedEOF {
				return fmt.Errorf("snpio: truncated temp-input header")
			}
			return err
		}
		if string(head) != string(tmpMagic) {
			return fmt.Errorf("snpio: bad magic %q, not a GSNP temp-input file", head)
		}
		nameLen, err := binary.ReadUvarint(tr.br)
		if err != nil {
			return err
		}
		if nameLen > 4096 {
			return fmt.Errorf("snpio: temp-input chromosome name of %d bytes", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(tr.br, name); err != nil {
			return err
		}
		tr.chr = string(name)
		tr.header = true
	}
	size, err := binary.ReadUvarint(tr.br)
	if err != nil {
		if err == io.ErrUnexpectedEOF {
			return io.EOF
		}
		return err
	}
	if size > maxBlockBytes {
		return fmt.Errorf("snpio: temp-input block claims %d bytes (limit %d)", size, maxBlockBytes)
	}
	payload := make([]byte, size)
	if _, err := io.ReadFull(tr.br, payload); err != nil {
		return fmt.Errorf("snpio: truncated temp-input block: %v", err)
	}

	n64, off, err := uvarintAt(payload, 0)
	if err != nil {
		return err
	}
	// Every read costs at least four metadata bytes, and the writer never
	// batches more than tmpBlockReads; reject counts beyond either bound
	// before allocating.
	if n64 > size/4 || n64 > 16*tmpBlockReads {
		return fmt.Errorf("snpio: temp-input block claims %d reads in %d bytes", n64, size)
	}
	metaLen, off, err := uvarintAt(payload, off)
	if err != nil {
		return err
	}
	if off+int(metaLen) > len(payload) {
		return fmt.Errorf("snpio: truncated metadata section")
	}
	meta := payload[off : off+int(metaLen)]
	off += int(metaLen)
	baseCodes, m, err := compress.Unpack2Bit(payload[off:])
	if err != nil {
		return err
	}
	off += m
	quals, _, err := compress.RLEDictDecode(payload[off:])
	if err != nil {
		return err
	}

	n := int(n64)
	tr.buf = make([]reads.AlignedRead, n)
	tr.pos = 0
	mOff := 0
	prev := 0
	consumed := 0
	for i := 0; i < n; i++ {
		d, m2, err := uvarintAt(meta, mOff)
		if err != nil {
			return err
		}
		mOff = m2
		id, m2, err := uvarintAt(meta, mOff)
		if err != nil {
			return err
		}
		mOff = m2
		sh, m2, err := uvarintAt(meta, mOff)
		if err != nil {
			return err
		}
		if sh > 511 { // a strand bit and a byte of hits
			return fmt.Errorf("snpio: strand/hits field %d out of range", sh)
		}
		mOff = m2
		rl64, m2, err := uvarintAt(meta, mOff)
		if err != nil {
			return err
		}
		mOff = m2
		rl := int(rl64)
		if consumed+rl > len(baseCodes) || consumed+rl > len(quals) {
			return fmt.Errorf("snpio: base/quality sections shorter than metadata claims")
		}
		prev += int(d)
		r := &tr.buf[i]
		r.Pos = prev
		r.ID = int64(id)
		r.Strand = uint8(sh & 1)
		r.Hits = uint8(sh >> 1)
		r.Bases = make(dna.Sequence, rl)
		r.Quals = make([]dna.Quality, rl)
		for k := 0; k < rl; k++ {
			r.Bases[k] = dna.Base(baseCodes[consumed+k])
			r.Quals[k] = dna.Quality(quals[consumed+k])
		}
		consumed += rl
	}
	return nil
}
