package snpio

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"gsnp/internal/align"
	"gsnp/internal/dna"
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

// ReadFASTQ parses a FASTQ stream.
func ReadFASTQ(r io.Reader) ([]align.RawRead, error) {
	ls := newLineScanner(r)
	var raws []align.RawRead
	next := func() (string, bool) {
		if !ls.scan() {
			return "", false
		}
		return ls.text(), true
	}
	errf := func(field, format string, args ...any) *ParseError {
		return &ParseError{Format: "fastq", Line: ls.line, Offset: ls.start,
			Field: field, Msg: fmt.Sprintf(format, args...)}
	}
	for {
		head, ok := next()
		if !ok {
			break
		}
		if strings.TrimSpace(head) == "" {
			continue
		}
		if !strings.HasPrefix(head, "@") {
			return nil, errf("header", "expected @header, got %q", head)
		}
		seqLine, ok := next()
		if !ok {
			return nil, errf("sequence", "truncated record")
		}
		plus, ok := next()
		if !ok || !strings.HasPrefix(plus, "+") {
			return nil, errf("separator", "expected '+' separator")
		}
		qualLine, ok := next()
		if !ok {
			return nil, errf("quality", "missing quality line")
		}
		if len(qualLine) != len(seqLine) {
			return nil, errf("quality", "quality length %d != sequence length %d", len(qualLine), len(seqLine))
		}
		var raw align.RawRead
		raw.ID = int64(len(raws))
		if fields := strings.Fields(head[1:]); len(fields) > 0 {
			idStr := strings.TrimPrefix(fields[0], "read_")
			if id, err := strconv.ParseInt(idStr, 10, 64); err == nil {
				raw.ID = id
			}
		}
		raw.Seq, _ = dna.ParseSequence(seqLine) // Ns tolerated as A
		raw.Quals = make([]dna.Quality, len(qualLine))
		for j := 0; j < len(qualLine); j++ {
			c := qualLine[j]
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
