package snpio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"

	"gsnp/internal/dna"
	"gsnp/internal/reads"
	"gsnp/internal/slab"
)

// The SOAP alignment text format: one read per line, tab-separated —
//
//	id  sequence  quality  hits  length  strand  chromosome  position
//
// Sequence and quality are written in sequencing orientation (the reverse
// complement of the reference orientation for '-' strand reads), position
// is 1-based leftmost reference coordinate, quality is Phred+33 ASCII.
// This mirrors the relevant columns of the format emitted by the SOAP
// aligner that SOAPsnp consumes, with alignment-type columns the SNP caller
// ignores omitted.

// qualOffset is the Phred ASCII offset.
const qualOffset = 33

// noQual marks a character below qualOffset in qualCode.
const noQual = 0xFF

// qualCode is the SOAP parser's quality-decode table: the clamped quality
// of every Phred+33 character, or noQual.
var qualCode = func() (t [256]uint8) {
	for c := range t {
		t[c] = noQual
		if c >= qualOffset {
			t[c] = uint8(dna.ClampQuality(c - qualOffset))
		}
	}
	return t
}()

// SOAPWriter streams alignment records to text.
type SOAPWriter struct {
	bw  *bufio.Writer
	chr string
	n   int64
}

// NewSOAPWriter creates a writer emitting records for chromosome chr.
func NewSOAPWriter(w io.Writer, chr string) *SOAPWriter {
	return &SOAPWriter{bw: bufio.NewWriterSize(w, 1<<20), chr: chr}
}

// Write emits one alignment record.
func (sw *SOAPWriter) Write(r *reads.AlignedRead) error {
	bases := r.Bases
	quals := r.Quals
	strand := byte('+')
	if r.Strand == 1 {
		strand = '-'
		bases = bases.ReverseComplement()
		rq := make([]dna.Quality, len(quals))
		for i, q := range quals {
			rq[len(quals)-1-i] = q
		}
		quals = rq
	}
	qs := make([]byte, len(quals))
	for i, q := range quals {
		qs[i] = byte(q) + qualOffset
	}
	_, err := fmt.Fprintf(sw.bw, "read_%d\t%s\t%s\t%d\t%d\t%c\t%s\t%d\n",
		r.ID, bases.String(), qs, r.Hits, len(bases), strand, sw.chr, r.Pos+1)
	if err == nil {
		sw.n++
	}
	return err
}

// Flush completes the stream.
func (sw *SOAPWriter) Flush() error { return sw.bw.Flush() }

// Count returns the number of records written.
func (sw *SOAPWriter) Count() int64 { return sw.n }

// WriteSOAP writes a whole read set.
func WriteSOAP(w io.Writer, chr string, rs []reads.AlignedRead) error {
	sw := NewSOAPWriter(w, chr)
	for i := range rs {
		if err := sw.Write(&rs[i]); err != nil {
			return err
		}
	}
	return sw.Flush()
}

// SOAPReader streams alignment records from text. A record's Bases and
// Quals are capacity-capped pieces of two slabs the reader carves them
// from, as ReadFASTQ's are: a record costs no allocation of its own, and a
// piece keeps its slab chunk alive for as long as the record is held.
type SOAPReader struct {
	ls    *lineScanner
	chr   string
	bases slab.Slab[dna.Base]
	quals slab.Slab[dna.Quality]
}

// NewSOAPReader wraps r.
func NewSOAPReader(r io.Reader) *SOAPReader {
	return &SOAPReader{ls: newLineScanner(r)}
}

// Chromosome returns the chromosome name of the last record read.
func (sr *SOAPReader) Chromosome() string { return sr.chr }

// Next parses the next record. It returns io.EOF at end of stream.
func (sr *SOAPReader) Next() (reads.AlignedRead, error) {
	for sr.ls.scan() {
		if line := bytes.TrimSpace(sr.ls.bytes()); len(line) > 0 {
			return sr.parse(line)
		}
	}
	if err := sr.ls.err(); err != nil {
		return reads.AlignedRead{}, err
	}
	return reads.AlignedRead{}, io.EOF
}

// errf builds a positioned parse error for the line being parsed.
func (sr *SOAPReader) errf(field, format string, args ...any) *ParseError {
	return &ParseError{Format: "soap", Line: sr.ls.line, Offset: sr.ls.start,
		Field: field, Msg: fmt.Sprintf(format, args...)}
}

// soapFields is the column count of a SOAP record.
const soapFields = 8

// parse decodes one record from the scanner's line buffer. The record is
// the hot loop of both input passes: one scan finds the tabs, the fields
// are sub-slices of line, the numeric columns convert in place
// (parseDecimal), and bases and qualities are decoded straight into
// reference orientation, with one loop per strand.
func (sr *SOAPReader) parse(line []byte) (reads.AlignedRead, error) {
	var f [soapFields][]byte
	rest := line
	for i := 0; i < soapFields-1; i++ {
		tab := bytes.IndexByte(rest, '\t')
		if tab < 0 {
			return reads.AlignedRead{}, sr.fieldCountErr(line)
		}
		f[i], rest = rest[:tab], rest[tab+1:]
	}
	if bytes.IndexByte(rest, '\t') >= 0 {
		return reads.AlignedRead{}, sr.fieldCountErr(line)
	}
	f[soapFields-1] = rest

	var r reads.AlignedRead
	id, ok := parseDecimal(bytes.TrimPrefix(f[0], []byte("read_")))
	if !ok {
		return r, sr.errf("id", "bad read id %q", f[0])
	}
	r.ID = id
	seq, qual := f[1], f[2]
	hits, ok := parseDecimal(f[3])
	if !ok || hits < 1 || hits > 255 {
		return r, sr.errf("hits", "bad hit count %q", f[3])
	}
	r.Hits = uint8(hits)
	length, ok := parseDecimal(f[4])
	if !ok || length != int64(len(seq)) || length != int64(len(qual)) {
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
	pos, ok := parseDecimal(f[7])
	if !ok || pos < 1 || pos > math.MaxInt {
		return r, sr.errf("position", "bad position %q", f[7])
	}
	r.Pos = int(pos - 1)

	// The file holds sequencing orientation; a '-' strand read is stored
	// reverse-complemented, its qualities reversed.
	bases, quals := sr.bases.Carve(len(qual)), sr.quals.Carve(len(qual))
	seq = seq[:len(qual)]
	if r.Strand == 0 {
		for i, c := range qual {
			q := qualCode[c]
			if q == noQual {
				return r, sr.errf("quality", "bad quality character %q", c)
			}
			bases[i], _ = dna.ParseBase(seq[i]) // Ns tolerated as A
			quals[i] = dna.Quality(q)
		}
	} else {
		last := len(qual) - 1
		for i, c := range qual {
			q := qualCode[c]
			if q == noQual {
				return r, sr.errf("quality", "bad quality character %q", c)
			}
			b, _ := dna.ParseBase(seq[i])
			bases[last-i], quals[last-i] = b.Complement(), dna.Quality(q)
		}
	}
	r.Bases = bases
	r.Quals = quals
	return r, nil
}

// fieldCountErr reports a line without exactly soapFields fields.
func (sr *SOAPReader) fieldCountErr(line []byte) *ParseError {
	return sr.errf("", "%d fields, want 8", bytes.Count(line, []byte{'\t'})+1)
}

// ReadSOAP reads a whole alignment stream, returning the records and the
// chromosome name.
func ReadSOAP(r io.Reader) ([]reads.AlignedRead, string, error) {
	sr := NewSOAPReader(r)
	var rs []reads.AlignedRead
	for {
		rec, err := sr.Next()
		if err == io.EOF {
			return rs, sr.Chromosome(), nil
		}
		if err != nil {
			return nil, "", err
		}
		rs = append(rs, rec)
	}
}
