package snpio

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/reads"
)

func FuzzParseRow(f *testing.F) {
	r := sampleRow()
	f.Add(string(r.appendText(nil)))
	f.Add("")
	f.Add("a\tb\tc")
	f.Fuzz(func(t *testing.T, line string) {
		row, err := ParseRow(line)
		if err != nil {
			return
		}
		// Serialisation must be canonical: one serialise/parse pass
		// reaches a fixed point. (Exact row equality needs QuantizeRow,
		// which the pipeline applies; arbitrary parsed floats may lose
		// sub-quantum precision on the first pass.)
		text1 := string(row.appendText(nil))
		row2, err := ParseRow(text1)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v", err)
		}
		text2 := string(row2.appendText(nil))
		if text1 != text2 {
			t.Fatalf("serialisation not canonical:\n %q\n %q", text1, text2)
		}
	})
}

func FuzzSOAPReader(f *testing.F) {
	f.Add("read_1\tACGT\tIIII\t1\t4\t+\tc\t1\n")
	f.Add("")
	f.Add("garbage line\n")
	f.Fuzz(func(t *testing.T, data string) {
		if len(data) >= maxLineBytes {
			return // the reference has no line-length limit
		}
		// Must never panic, and must return the records or the error the
		// string-splitting reference parser does.
		requireSOAPMatchesReference(t, data)
	})
}

// FuzzFASTQReader holds ReadFASTQ to the per-line-string reference
// parser: the same reads, or the same *ParseError.
func FuzzFASTQReader(f *testing.F) {
	f.Add("@read_1\nACGT\n+\nIIII\n")
	f.Add("")
	f.Add("@truncated\nACGT\n")
	f.Add("@mismatch\nACGT\n+\nII\n")
	f.Add("@read_1\r\nACGT\r\n+\r\nIIII\r\n@read_2\r\nAC\r\n+\r\nII\r\n")                // CRLF
	f.Add("\n@read_1\nACGT\n+\nIIII\n\n \t\n@read_2\nAC\n+\nII\n\n")                     // blank lines
	f.Add("@read_3\nacgtNnRy\n+\nIIIIIIII\n")                                            // lower case, N
	f.Add("@SRR001.7 length=4\nACGT\n+\nIIII\n@ 42\nAC\n+\nII\n")                        // no read_ prefix
	f.Add("@read_9223372036854775808\nAC\n+\nII\n@read_-9223372036854775808\nA\n+\nI\n") // int64 overflow, min
	f.Add("@read_1\nACGT\n+\nII\x1fI\n")                                                 // quality below '!'
	f.Add("@read_1\nACGT\n+\nIIII\n@read_2\nAC\n+\nII")                                  // no trailing newline
	f.Add("@\u00a0read_+5\u0085x\n\n+\n\n")                                              // Unicode spaces, empty read
	f.Fuzz(func(t *testing.T, data string) {
		rs, err := ReadFASTQ(strings.NewReader(data))
		requireFASTQMatchesReference(t, data)
		if err != nil {
			return
		}
		// Parsed reads uphold the invariant the aligner depends on:
		// equally long base and quality strings.
		for i, r := range rs {
			if len(r.Seq) != len(r.Quals) {
				t.Fatalf("read %d: %d bases vs %d quals", i, len(r.Seq), len(r.Quals))
			}
		}
	})
}

func FuzzSAMReader(f *testing.F) {
	f.Add("@HD\tVN:1.6\nread_1\t0\tchr1\t10\t60\t4M\t*\t0\t0\tACGT\tIIII\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		sr := NewSAMReader(strings.NewReader(data))
		for i := 0; i < 100; i++ {
			if _, err := sr.Next(); err != nil {
				return
			}
		}
	})
}

func FuzzBlockReader(f *testing.F) {
	var buf bytes.Buffer
	w := NewBlockWriter(&buf)
	_ = w.WriteBlock(makeRows("c", 1, 50, 1))
	_ = w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("GSNPv1\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic on corrupted containers.
		_, _ = ReadAllBlocks(bytes.NewReader(data))
	})
}

func FuzzTempReader(f *testing.F) {
	var buf bytes.Buffer
	tw := NewTempWriter(&buf, "c")
	rs := makeReadsForFuzz()
	for i := range rs {
		_ = tw.Write(&rs[i])
	}
	_ = tw.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte("GSNPTMP1"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := NewTempReader(bytes.NewReader(data))
		for i := 0; i < 10000; i++ {
			if _, err := tr.Next(); err != nil {
				return
			}
		}
	})
}

// FuzzTempRoundTrip is the encoder's half of the temporary-input contract,
// which the decode-only target above cannot see: any position-sorted read
// set — lengths 0 to 300, every Hits value, both strands — comes back from
// TempWriter -> TempReader exactly as written.
func FuzzTempRoundTrip(f *testing.F) {
	f.Add([]byte{0, 1, 0, 4, 0x1b, 0x6c, 0xb1, 0xc6})
	// A 129-hit reverse-strand repeat read between two unique ones: one byte
	// for strand and hits reads it back as a unique read.
	f.Add([]byte{5, 1, 0, 2, 0xa0, 0xa1, 0, 129, 0x80, 3, 0x50, 0x51, 0x52, 9, 1, 0, 1, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs := readsFromFuzz(data)
		got, err := tempRoundTrip(rs)
		if err != nil {
			t.Fatalf("round trip of %d reads: %v", len(rs), err)
		}
		if !reflect.DeepEqual(got, rs) {
			t.Fatalf("%d reads written, read back\n got %+v\nwant %+v", len(rs), got, rs)
		}
	})
}

// readsFromFuzz draws a position-sorted read set from fuzz input: per read a
// position delta, the hit count, strand (top bit) and length (mod 301) in
// two bytes, then one byte per base (low two bits the base, the rest the
// quality). A read the input ends inside keeps the bases it got.
func readsFromFuzz(data []byte) []reads.AlignedRead {
	rs := []reads.AlignedRead{}
	pos := 0
	for len(data) >= 4 {
		pos += int(data[0])
		n := min((int(data[2]&0x7f)<<8|int(data[3]))%301, len(data)-4)
		r := reads.AlignedRead{
			ID: int64(len(rs)), Pos: pos, Strand: data[2] >> 7, Hits: data[1],
			Bases: make(dna.Sequence, n), Quals: make([]dna.Quality, n),
		}
		for k, b := range data[4 : 4+n] {
			r.Bases[k], r.Quals[k] = dna.Base(b&3), dna.Quality(b>>2)
		}
		rs = append(rs, r)
		data = data[4+n:]
	}
	return rs
}

// makeReadsForFuzz builds a tiny deterministic read set without testing.T.
func makeReadsForFuzz() []reads.AlignedRead {
	var rs []reads.AlignedRead
	for i := 0; i < 5; i++ {
		n := 20
		r := reads.AlignedRead{ID: int64(i), Pos: i * 7, Hits: 1}
		r.Bases = make(dna.Sequence, n)
		r.Quals = make([]dna.Quality, n)
		for k := 0; k < n; k++ {
			r.Bases[k] = dna.Base((i + k) & 3)
			r.Quals[k] = dna.Quality(20 + (k/8)*5)
		}
		rs = append(rs, r)
	}
	return rs
}
