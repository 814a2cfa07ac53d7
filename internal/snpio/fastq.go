package snpio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"unicode"

	"gsnp/internal/align"
	"gsnp/internal/dna"
	"gsnp/internal/slab"
)

// FASTQ support for raw (pre-alignment) reads: the sequencer's output
// format, consumed by the aligner stage.

// WriteFASTQ writes raw reads in FASTQ format (Phred+33 qualities).
func WriteFASTQ(w io.Writer, raws []align.RawRead) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	for i := range raws {
		r := &raws[i]
		qs := make([]byte, len(r.Quals))
		for j, q := range r.Quals {
			qs[j] = byte(q) + qualOffset
		}
		if _, err := fmt.Fprintf(bw, "@read_%d\n%s\n+\n%s\n", r.ID, r.Seq.String(), qs); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadFASTQ parses a FASTQ stream. Records decode straight from the line
// scanner's buffer: the reads' Seq and Quals are capacity-capped pieces of
// a few shared slabs, and no line becomes a string. Blank lines between
// records are skipped. A header's first field, less a "read_" prefix, is
// the read ID when it parses as a decimal int64; otherwise the read is
// numbered by its ordinal.
func ReadFASTQ(r io.Reader) ([]align.RawRead, error) {
	ls := newLineScanner(r)
	var raws []align.RawRead
	var seqs slab.Slab[dna.Base]
	var quals slab.Slab[dna.Quality]
	errf := func(field, format string, args ...any) *ParseError {
		return &ParseError{Format: "fastq", Line: ls.line, Offset: ls.start,
			Field: field, Msg: fmt.Sprintf(format, args...)}
	}
	for ls.scan() {
		head := ls.bytes()
		if len(bytes.TrimSpace(head)) == 0 {
			continue
		}
		if head[0] != '@' {
			return nil, errf("header", "expected @header, got %q", head)
		}
		raw := align.RawRead{ID: int64(len(raws))}
		if id, ok := parseReadID(head[1:]); ok {
			raw.ID = id
		}
		if !ls.scan() {
			return nil, errf("sequence", "truncated record")
		}
		line := ls.bytes()
		raw.Seq = seqs.Carve(len(line))
		for j, c := range line {
			raw.Seq[j], _ = dna.ParseBase(c) // Ns tolerated as A
		}
		if !ls.scan() || !bytes.HasPrefix(ls.bytes(), []byte("+")) {
			return nil, errf("separator", "expected '+' separator")
		}
		if !ls.scan() {
			return nil, errf("quality", "missing quality line")
		}
		line = ls.bytes()
		if len(line) != len(raw.Seq) {
			return nil, errf("quality", "quality length %d != sequence length %d", len(line), len(raw.Seq))
		}
		raw.Quals = quals.Carve(len(line))
		for j, c := range line {
			if c < qualOffset {
				return nil, errf("quality", "bad quality character %q", c)
			}
			raw.Quals[j] = dna.ClampQuality(int(c) - qualOffset)
		}
		raws = append(raws, raw)
	}
	if err := ls.err(); err != nil {
		return nil, err
	}
	return raws, nil
}

// parseReadID reads a FASTQ header's ID: its first whitespace-separated
// field, less a "read_" prefix, as a decimal int64 (parseDecimal).
func parseReadID(head []byte) (int64, bool) {
	f := bytes.TrimLeftFunc(head, unicode.IsSpace)
	if end := bytes.IndexFunc(f, unicode.IsSpace); end >= 0 {
		f = f[:end]
	}
	return parseDecimal(bytes.TrimPrefix(f, []byte("read_")))
}

// parseDecimal reads f as strconv.ParseInt(string(f), 10, 64) would: an
// optional sign, then decimal digits that fit an int64.
func parseDecimal(f []byte) (int64, bool) {
	neg := false
	if len(f) > 0 && (f[0] == '+' || f[0] == '-') {
		neg, f = f[0] == '-', f[1:]
	}
	if len(f) == 0 {
		return 0, false
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var n uint64
	for _, c := range f {
		d := uint64(c - '0')
		if d > 9 || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return int64(-n), true
	}
	return int64(n), true
}
