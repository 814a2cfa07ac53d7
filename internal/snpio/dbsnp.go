package snpio

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"gsnp/internal/bayes"
)

// The known-SNP prior file: one site per line, tab-separated —
//
//	chromosome  position  validated  freqA  freqC  freqG  freqT
//
// position is 1-based, validated is 0/1, frequencies sum to ~1. This
// carries the same information as the dbSNP-derived prior file SOAPsnp
// consumes.

// KnownSNPs maps zero-based positions to prior records for one chromosome.
type KnownSNPs map[int]*bayes.KnownSNP

// WriteKnownSNPs writes the prior file for one chromosome. Positions are
// emitted in ascending order.
func WriteKnownSNPs(w io.Writer, chr string, snps KnownSNPs) error {
	bw := bufio.NewWriter(w)
	positions := make([]int, 0, len(snps))
	for pos := range snps {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	for _, pos := range positions {
		s := snps[pos]
		v := 0
		if s.Validated {
			v = 1
		}
		if _, err := fmt.Fprintf(bw, "%s\t%d\t%d\t%.4f\t%.4f\t%.4f\t%.4f\n",
			chr, pos+1, v, s.Freq[0], s.Freq[1], s.Freq[2], s.Freq[3]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadKnownSNPs parses the prior file, returning records for every
// chromosome in the stream.
func ReadKnownSNPs(r io.Reader) (map[string]KnownSNPs, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, lineBufBytes), maxLineBytes)
	out := map[string]KnownSNPs{}
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Split(text, "\t")
		if len(f) != 7 {
			return nil, fmt.Errorf("snpio: known-SNP line %d: %d fields, want 7", line, len(f))
		}
		pos, err := strconv.Atoi(f[1])
		if err != nil || pos < 1 {
			return nil, fmt.Errorf("snpio: known-SNP line %d: bad position %q", line, f[1])
		}
		rec := &bayes.KnownSNP{Validated: f[2] == "1"}
		var sum float64
		for b := 0; b < 4; b++ {
			v, err := strconv.ParseFloat(f[3+b], 64)
			if err != nil || v < 0 || v > 1 {
				return nil, fmt.Errorf("snpio: known-SNP line %d: bad frequency %q", line, f[3+b])
			}
			rec.Freq[b] = v
			sum += v
		}
		if sum < 0.98 || sum > 1.02 {
			return nil, fmt.Errorf("snpio: known-SNP line %d: frequencies sum to %.3f", line, sum)
		}
		chr := f[0]
		if out[chr] == nil {
			out[chr] = KnownSNPs{}
		}
		out[chr][pos-1] = rec
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
