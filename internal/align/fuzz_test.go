package align

import (
	"bytes"
	"reflect"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/seqsim"
)

// fuzzRef is the shared fuzz reference, built once: FuzzAlignReads
// stresses read-shaped inputs, not the reference, and rebuilding a
// k-mer index per execution would dominate the fuzzing budget.
var fuzzRef = seqsim.GenerateReference(seqsim.GenomeSpec{Name: "fz", Length: 4096, Seed: 99}).Seq

// repeatRef is fuzzRef with a tandem repeat in the middle: a 13-base unit
// 200 times over sites [1024, 3624). Every k-mer inside the repeat occurs
// about 200 times, and a read from it has every seed propose the same
// candidates, which is the candidate dedupe's worst case.
var repeatRef = func() dna.Sequence {
	ref := append(dna.Sequence(nil), fuzzRef[:1024]...)
	for i := 0; i < 200; i++ {
		ref = append(ref, fuzzRef[2000:2013]...)
	}
	return append(ref, fuzzRef[3000:]...)
}()

// fuzzIndexes builds the flat index and the map-of-slices oracle of each
// fuzz reference for seed length k.
func fuzzIndexes(t *testing.T, k int) (ixs []*Index, oracles []*mapIndex) {
	for _, ref := range []dna.Sequence{fuzzRef, repeatRef} {
		ix, err := BuildIndex(ref, k)
		if err != nil {
			t.Fatalf("BuildIndex(k=%d): %v", k, err)
		}
		oracle, err := buildMapIndex(ref, k)
		if err != nil {
			t.Fatalf("buildMapIndex(k=%d): %v", k, err)
		}
		ixs, oracles = append(ixs, ix), append(oracles, oracle)
	}
	return ixs, oracles
}

// FuzzAlignReads drives the aligner with adversarial read sets: non-ACGT
// bases (mapped by the parser the way FASTQ Ns are), empty reads, reads
// shorter than the seed, reads longer than the reference, quality arrays
// that disagree with the sequence length, and reads from a tandem repeat.
// Whatever the input, on both fuzz references, every read's hits must
// equal the map-of-slices oracle's, the aligner must not panic and must
// uphold its output invariants — in-bounds position-sorted placements with
// matched Bases/Quals lengths — and the sharded variant must reproduce the
// serial output exactly.
func FuzzAlignReads(f *testing.F) {
	f.Add([]byte("ACGTACGTACGTACGTACGTACGT\nTTTT\n"), []byte("5555555555\n!"), 2, 16)
	f.Add([]byte("NNNNNNNNNNNNNNNNNNNN\nACGNACGTNNACGTACGTAC\n"), []byte(""), 1, 8)
	f.Add([]byte("ACG\n\nA\nACGTACGTACGTACGT\n"), []byte("#\n##\n###\n"), 0, 4)
	f.Add([]byte("acgtacgtacgtacgtacgtacgtacgtacgt\n"), []byte("IIIIIIII"), 3, 31)
	f.Fuzz(func(t *testing.T, seqData, qualData []byte, mm, k int) {
		if mm < 0 {
			mm = -mm
		}
		mm %= 8
		if k < 0 {
			k = -k
		}
		k %= 32 // 0 selects DefaultK
		ixs, oracles := fuzzIndexes(t, k)

		// One read per line; quality lines pair up by index and may be
		// missing, short or long relative to their sequence.
		seqLines := bytes.Split(seqData, []byte("\n"))
		qualLines := bytes.Split(qualData, []byte("\n"))
		var raws []RawRead
		for i, sl := range seqLines {
			seq, _ := dna.ParseSequence(string(sl)) // non-ACGT tolerated as A
			var quals []dna.Quality
			if i < len(qualLines) {
				for _, c := range qualLines[i] {
					quals = append(quals, dna.ClampQuality(int(c)-33))
				}
			}
			raws = append(raws, RawRead{ID: int64(i), Seq: seq, Quals: quals})
		}

		for n, ix := range ixs {
			for i := range raws {
				got, want := ix.Align(raws[i].Seq, mm), oracles[n].Align(raws[i].Seq, mm)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("ref %d read %d: hits %+v, oracle %+v", n, i, got, want)
				}
			}
			out := AlignReads(ix, raws, mm)
			for i := range out {
				r := &out[i]
				if len(r.Bases) != len(r.Quals) {
					t.Fatalf("read %d: len(Bases)=%d len(Quals)=%d", r.ID, len(r.Bases), len(r.Quals))
				}
				if r.Pos < 0 || r.Pos+len(r.Bases) > len(ix.ref) {
					t.Fatalf("read %d: placement [%d, %d) outside reference of %d sites",
						r.ID, r.Pos, r.Pos+len(r.Bases), len(ix.ref))
				}
				if r.Hits < 1 {
					t.Fatalf("read %d: mapped with Hits=0", r.ID)
				}
				if i > 0 && out[i-1].Pos > r.Pos {
					t.Fatalf("output not position sorted at %d", i)
				}
			}
			par := AlignReadsParallel(ix, raws, mm, 3)
			if !reflect.DeepEqual(out, par) {
				t.Fatalf("parallel output differs from serial: %d vs %d reads", len(par), len(out))
			}
		}
	})
}
