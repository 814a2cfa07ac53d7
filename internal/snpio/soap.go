package snpio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"gsnp/internal/dna"
	"gsnp/internal/reads"
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

// SOAPReader streams alignment records from text.
type SOAPReader struct {
	ls  *lineScanner
	chr string
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
// the hot loop of both input passes, so it allocates only what it returns:
// the fields are sub-slices of line, the numeric columns convert through
// string(field) arguments that never leave strconv (no copy), and bases
// and qualities are decoded straight into reference orientation.
func (sr *SOAPReader) parse(line []byte) (reads.AlignedRead, error) {
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
