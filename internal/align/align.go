// Package align implements a k-mer-index short-read aligner, the substrate
// standing in for the SOAP aligner whose output SOAPsnp and GSNP consume
// (the paper's main input file "is obtained from sequence alignment
// software", Section III-A).
//
// The aligner seeds with exact k-mers at pigeonhole offsets — with at most
// m mismatches, one of m+1 disjoint seeds must match exactly — verifies
// candidates by full-length mismatch counting on both strands, and reports
// the best position with the count of equally good hits (the uniqueness
// signal SNP calling consumes).
package align

import (
	"fmt"
	"runtime"
	"sort"

	"gsnp/internal/dna"
	"gsnp/internal/par"
	"gsnp/internal/reads"
)

// RawRead is a read as it leaves the sequencer: bases and qualities in
// sequencing orientation, not yet placed on the reference.
type RawRead struct {
	ID    int64
	Seq   dna.Sequence
	Quals []dna.Quality
}

// Index is a k-mer seed index over a reference sequence.
type Index struct {
	ref   dna.Sequence
	k     int
	seeds map[uint64][]int32
}

// DefaultK is the default seed length: long enough to be selective on
// megabase references, short enough that three seeds fit a 100 bp read.
const DefaultK = 16

// DefaultMaxMismatch is the default per-read mismatch budget, matching the
// classic short-read aligner setting the paper's input pipeline assumes.
const DefaultMaxMismatch = 2

// BuildIndex indexes every k-mer position of the reference.
func BuildIndex(ref dna.Sequence, k int) (*Index, error) {
	if k <= 0 {
		k = DefaultK
	}
	if k > 31 {
		return nil, fmt.Errorf("align: seed length %d exceeds 31", k)
	}
	if len(ref) < k {
		return nil, fmt.Errorf("align: reference shorter than seed length")
	}
	ix := &Index{ref: ref, k: k, seeds: make(map[uint64][]int32, len(ref))}
	var key uint64
	mask := uint64(1)<<(2*k) - 1
	for i, b := range ref {
		key = (key<<2 | uint64(b)) & mask
		if i >= k-1 {
			pos := int32(i - k + 1)
			ix.seeds[key] = append(ix.seeds[key], pos)
		}
	}
	return ix, nil
}

// K returns the seed length.
func (ix *Index) K() int { return ix.k }

// kmerAt packs seq[off:off+k] into a key.
func (ix *Index) kmerAt(seq dna.Sequence, off int) uint64 {
	var key uint64
	for _, b := range seq[off : off+ix.k] {
		key = key<<2 | uint64(b)
	}
	return key
}

// Hit is one candidate placement of a read.
type Hit struct {
	// Pos is the zero-based leftmost reference position.
	Pos int
	// Strand is 0 when the read matched forward, 1 when its reverse
	// complement matched.
	Strand uint8
	// Mismatches is the number of mismatching bases.
	Mismatches int
}

// Align finds all placements of seq with at most maxMismatch mismatches,
// on both strands, sorted by (mismatches, position, strand).
func (ix *Index) Align(seq dna.Sequence, maxMismatch int) []Hit {
	var hits []Hit
	hits = ix.alignOne(seq, 0, maxMismatch, hits)
	hits = ix.alignOne(seq.ReverseComplement(), 1, maxMismatch, hits)
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Mismatches != hits[j].Mismatches {
			return hits[i].Mismatches < hits[j].Mismatches
		}
		if hits[i].Pos != hits[j].Pos {
			return hits[i].Pos < hits[j].Pos
		}
		return hits[i].Strand < hits[j].Strand
	})
	// Deduplicate (two seeds may propose the same placement).
	out := hits[:0]
	for _, h := range hits {
		if len(out) > 0 {
			last := out[len(out)-1]
			if last.Pos == h.Pos && last.Strand == h.Strand {
				continue
			}
		}
		out = append(out, h)
	}
	return out
}

// alignOne seeds and verifies one orientation of the read.
func (ix *Index) alignOne(seq dna.Sequence, strand uint8, maxMismatch int, hits []Hit) []Hit {
	if len(seq) < ix.k {
		return hits
	}
	// Pigeonhole seeds: maxMismatch+1 disjoint k-mers (as many as fit).
	nSeeds := maxMismatch + 1
	if max := len(seq) / ix.k; nSeeds > max {
		nSeeds = max
	}
	seen := map[int]bool{}
	for s := 0; s < nSeeds; s++ {
		off := s * ix.k
		for _, sp := range ix.seeds[ix.kmerAt(seq, off)] {
			pos := int(sp) - off
			if pos < 0 || pos+len(seq) > len(ix.ref) || seen[pos] {
				continue
			}
			seen[pos] = true
			mm := 0
			for i, b := range seq {
				if ix.ref[pos+i] != b {
					mm++
					if mm > maxMismatch {
						break
					}
				}
			}
			if mm <= maxMismatch {
				hits = append(hits, Hit{Pos: pos, Strand: strand, Mismatches: mm})
			}
		}
	}
	return hits
}

// alignRead places one raw read, reporting ok=false when it is unmapped.
// Qualities are normalized to the sequence length before placement —
// truncated when over-long, zero-padded when short — so a malformed read
// can never produce an AlignedRead whose Bases and Quals disagree (the
// downstream pileup indexes Quals by base offset and must not panic).
func alignRead(ix *Index, r *RawRead, maxMismatch int) (reads.AlignedRead, bool) {
	hits := ix.Align(r.Seq, maxMismatch)
	if len(hits) == 0 {
		return reads.AlignedRead{}, false
	}
	quals := r.Quals
	if len(quals) != len(r.Seq) {
		norm := make([]dna.Quality, len(r.Seq))
		copy(norm, quals)
		quals = norm
	}
	best := hits[0]
	ties := 0
	for _, h := range hits {
		if h.Mismatches == best.Mismatches {
			ties++
		}
	}
	if ties > 255 {
		ties = 255
	}
	ar := reads.AlignedRead{
		ID:     r.ID,
		Pos:    best.Pos,
		Strand: best.Strand,
		Hits:   uint8(ties),
	}
	if best.Strand == 1 {
		ar.Bases = r.Seq.ReverseComplement()
		ar.Quals = make([]dna.Quality, len(quals))
		for j, q := range quals {
			ar.Quals[len(quals)-1-j] = q
		}
	} else {
		ar.Bases = append(dna.Sequence(nil), r.Seq...)
		ar.Quals = append([]dna.Quality(nil), quals...)
	}
	return ar, true
}

// AlignReads places every raw read, returning position-sorted alignment
// records in the SNP caller's input form. Reads with no placement within
// maxMismatch are dropped (unmapped). The Hits field counts the placements
// tied with the best one, so repeat-region reads carry Hits > 1.
func AlignReads(ix *Index, raws []RawRead, maxMismatch int) []reads.AlignedRead {
	var out []reads.AlignedRead
	for i := range raws {
		if ar, ok := alignRead(ix, &raws[i], maxMismatch); ok {
			out = append(out, ar)
		}
	}
	reads.SortByPos(out)
	return out
}

// AlignReadsParallel is AlignReads sharded across workers. Each worker
// aligns a contiguous shard of the input; shards are concatenated in input
// order before the final position sort, so the result is byte-for-byte
// identical to the serial AlignReads at every worker count (SortByPos
// breaks position ties by read ID, and per-read placement is a pure
// function of the read and the index). workers <= 0 means GOMAXPROCS.
func AlignReadsParallel(ix *Index, raws []RawRead, maxMismatch, workers int) []reads.AlignedRead {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(raws) {
		workers = len(raws)
	}
	if workers <= 1 {
		return AlignReads(ix, raws, maxMismatch)
	}
	shards := make([][]reads.AlignedRead, workers)
	par.Range(len(raws), workers, func(w, lo, hi int) {
		var out []reads.AlignedRead
		for i := lo; i < hi; i++ {
			if ar, ok := alignRead(ix, &raws[i], maxMismatch); ok {
				out = append(out, ar)
			}
		}
		shards[w] = out
	})
	var out []reads.AlignedRead
	for _, s := range shards {
		out = append(out, s...)
	}
	reads.SortByPos(out)
	return out
}

// RawFromAligned converts an aligned read back to sequencer orientation,
// letting simulated data drive the aligner end to end.
func RawFromAligned(r *reads.AlignedRead) RawRead {
	raw := RawRead{ID: r.ID}
	if r.Strand == 1 {
		raw.Seq = r.Bases.ReverseComplement()
		raw.Quals = make([]dna.Quality, len(r.Quals))
		for i, q := range r.Quals {
			raw.Quals[len(r.Quals)-1-i] = q
		}
	} else {
		raw.Seq = append(dna.Sequence(nil), r.Bases...)
		raw.Quals = append([]dna.Quality(nil), r.Quals...)
	}
	return raw
}
