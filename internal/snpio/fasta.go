// Package snpio implements the file formats of the SNP-detection pipeline:
// the FASTA reference, the SOAP-style alignment text format (the main input,
// produced by sequence alignment software), the known-SNP prior file, the
// 17-column SOAPsnp result table, and GSNP's compressed binary formats for
// temporary input and final output (Section V of the paper).
package snpio

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"gsnp/internal/dna"
)

// FASTARecord is one sequence of a FASTA file.
type FASTARecord struct {
	Name string
	Seq  dna.Sequence
}

// fastaWidth is the line width used when writing sequences.
const fastaWidth = 70

// WriteFASTA writes records in FASTA format.
func WriteFASTA(w io.Writer, recs ...FASTARecord) error {
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		if _, err := fmt.Fprintf(bw, ">%s\n", rec.Name); err != nil {
			return err
		}
		s := rec.Seq.String()
		for off := 0; off < len(s); off += fastaWidth {
			end := off + fastaWidth
			if end > len(s) {
				end = len(s)
			}
			if _, err := fmt.Fprintln(bw, s[off:end]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadFASTA parses a FASTA stream. Non-ACGT characters are mapped to A, as
// the pipeline treats Ns as unusable reference anyway.
func ReadFASTA(r io.Reader) ([]FASTARecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, lineBufBytes), maxLineBytes)
	var recs []FASTARecord
	var cur *FASTARecord
	var body strings.Builder
	flush := func() error {
		if cur == nil {
			return nil
		}
		seq, _ := dna.ParseSequence(body.String()) // Ns tolerated
		cur.Seq = seq
		recs = append(recs, *cur)
		cur = nil
		body.Reset()
		return nil
	}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if strings.HasPrefix(text, ">") {
			if err := flush(); err != nil {
				return nil, err
			}
			name := strings.Fields(text[1:])
			if len(name) == 0 {
				return nil, fmt.Errorf("snpio: line %d: empty FASTA header", line)
			}
			cur = &FASTARecord{Name: name[0]}
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("snpio: line %d: sequence data before FASTA header", line)
		}
		body.WriteString(text)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return recs, nil
}
