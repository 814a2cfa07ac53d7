package snpio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gsnp/internal/dna"
	"gsnp/internal/reads"
)

// SAM alignment support: the paper's contemporaries (SAMtools, Section
// II-C) standardised on the Sequence Alignment/Map format, so the caller
// accepts SAM in addition to the SOAP text format. Only the subset SNP
// calling needs is interpreted: position-sorted records with simple
// match/mismatch alignments (CIGAR "<n>M" or "*"); reads with indels,
// clipping or unmapped flags are skipped, mirroring how SOAPsnp consumes
// only ungapped hits.

// SAM flag bits used here.
const (
	samFlagUnmapped = 0x4
	samFlagReverse  = 0x10
)

// SAMReader streams alignment records from SAM text.
type SAMReader struct {
	ls      *lineScanner
	chr     string
	skipped int64
}

// NewSAMReader wraps r.
func NewSAMReader(r io.Reader) *SAMReader {
	return &SAMReader{ls: newLineScanner(r)}
}

// Chromosome returns the reference name of the last record read.
func (sr *SAMReader) Chromosome() string { return sr.chr }

// Skipped counts records dropped because SNP calling cannot use them
// (unmapped, gapped, clipped or malformed-but-tolerable).
func (sr *SAMReader) Skipped() int64 { return sr.skipped }

// Next parses the next usable record, returning io.EOF at end of stream.
func (sr *SAMReader) Next() (reads.AlignedRead, error) {
	for sr.ls.scan() {
		text := sr.ls.text()
		if text == "" || strings.HasPrefix(text, "@") {
			continue // header or blank
		}
		r, ok, err := sr.parse(text)
		if err != nil {
			return reads.AlignedRead{}, err
		}
		if !ok {
			sr.skipped++
			continue
		}
		return r, nil
	}
	if err := sr.ls.err(); err != nil {
		return reads.AlignedRead{}, err
	}
	return reads.AlignedRead{}, io.EOF
}

// errf builds a positioned parse error for the line being parsed.
func (sr *SAMReader) errf(field, format string, args ...any) *ParseError {
	return &ParseError{Format: "sam", Line: sr.ls.line, Offset: sr.ls.start,
		Field: field, Msg: fmt.Sprintf(format, args...)}
}

// parse interprets one alignment line; ok=false means "skip this record".
func (sr *SAMReader) parse(text string) (reads.AlignedRead, bool, error) {
	f := strings.Split(text, "\t")
	if len(f) < 11 {
		return reads.AlignedRead{}, false, sr.errf("", "%d fields, want >= 11", len(f))
	}
	flag, err := strconv.Atoi(f[1])
	if err != nil {
		return reads.AlignedRead{}, false, sr.errf("FLAG", "bad FLAG %q", f[1])
	}
	if flag&samFlagUnmapped != 0 || f[2] == "*" {
		return reads.AlignedRead{}, false, nil
	}
	pos, err := strconv.Atoi(f[3])
	if err != nil || pos < 1 {
		return reads.AlignedRead{}, false, sr.errf("POS", "bad POS %q", f[3])
	}
	seqStr, qualStr := f[9], f[10]
	if seqStr == "*" || len(qualStr) != len(seqStr) {
		return reads.AlignedRead{}, false, nil
	}
	// Only plain full-length matches are usable.
	cigar := f[5]
	if cigar != "*" && cigar != fmt.Sprintf("%dM", len(seqStr)) {
		return reads.AlignedRead{}, false, nil
	}

	var r reads.AlignedRead
	r.Pos = pos - 1
	idStr := strings.TrimPrefix(f[0], "read_")
	if id, err := strconv.ParseInt(idStr, 10, 64); err == nil {
		r.ID = id
	}
	if flag&samFlagReverse != 0 {
		r.Strand = 1
	}
	// Hit count from the NH tag when present, else 1.
	r.Hits = 1
	for _, tag := range f[11:] {
		if strings.HasPrefix(tag, "NH:i:") {
			if nh, err := strconv.Atoi(tag[5:]); err == nil && nh >= 1 {
				if nh > 255 {
					nh = 255
				}
				r.Hits = uint8(nh)
			}
		}
	}
	sr.chr = f[2]

	// SAM stores SEQ/QUAL already in reference orientation.
	seq, _ := dna.ParseSequence(seqStr)
	r.Bases = seq
	r.Quals = make([]dna.Quality, len(qualStr))
	for i := 0; i < len(qualStr); i++ {
		c := qualStr[i]
		if c < qualOffset {
			return reads.AlignedRead{}, false, sr.errf("QUAL", "bad quality character %q", c)
		}
		r.Quals[i] = dna.ClampQuality(int(c) - qualOffset)
	}
	return r, true, nil
}

// WriteSAM writes reads as minimal SAM with an @HD/@SQ header. refLen is
// the reference length for the @SQ line.
func WriteSAM(w io.Writer, chr string, refLen int, rs []reads.AlignedRead) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "@HD\tVN:1.6\tSO:coordinate\n@SQ\tSN:%s\tLN:%d\n", chr, refLen); err != nil {
		return err
	}
	for i := range rs {
		r := &rs[i]
		flag := 0
		if r.Strand == 1 {
			flag |= samFlagReverse
		}
		qs := make([]byte, len(r.Quals))
		for j, q := range r.Quals {
			qs[j] = byte(q) + qualOffset
		}
		if _, err := fmt.Fprintf(bw, "read_%d\t%d\t%s\t%d\t60\t%dM\t*\t0\t0\t%s\t%s\tNH:i:%d\n",
			r.ID, flag, chr, r.Pos+1, len(r.Bases), r.Bases.String(), qs, r.Hits); err != nil {
			return err
		}
	}
	return bw.Flush()
}
