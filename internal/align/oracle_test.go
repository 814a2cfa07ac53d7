package align

import (
	"fmt"
	"sort"

	"gsnp/internal/dna"
)

// mapIndex is the aligner's seed index and Align as they were before the
// flat table and per-shard scratch, kept verbatim (renamed) as the oracle
// FuzzAlignReads holds Index.Align to: a map of one position slice per
// k-mer, a seen-map per orientation and a sort.Slice per read.
type mapIndex struct {
	ref   dna.Sequence
	k     int
	seeds map[uint64][]int32
}

func buildMapIndex(ref dna.Sequence, k int) (*mapIndex, error) {
	if k <= 0 {
		k = DefaultK
	}
	if k > 31 {
		return nil, fmt.Errorf("align: seed length %d exceeds 31", k)
	}
	if len(ref) < k {
		return nil, fmt.Errorf("align: reference shorter than seed length")
	}
	ix := &mapIndex{ref: ref, k: k, seeds: make(map[uint64][]int32, len(ref))}
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

func (ix *mapIndex) kmerAt(seq dna.Sequence, off int) uint64 {
	var key uint64
	for _, b := range seq[off : off+ix.k] {
		key = key<<2 | uint64(b)
	}
	return key
}

func (ix *mapIndex) Align(seq dna.Sequence, maxMismatch int) []Hit {
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

func (ix *mapIndex) alignOne(seq dna.Sequence, strand uint8, maxMismatch int, hits []Hit) []Hit {
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
