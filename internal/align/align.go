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
	"math/bits"
	"runtime"
	"slices"

	"gsnp/internal/dna"
	"gsnp/internal/par"
	"gsnp/internal/reads"
	"gsnp/internal/slab"
)

// RawRead is a read as it leaves the sequencer: bases and qualities in
// sequencing orientation, not yet placed on the reference.
type RawRead struct {
	ID    int64
	Seq   dna.Sequence
	Quals []dna.Quality
}

// Index is a k-mer seed index over a reference sequence: an open-addressed
// table of the distinct k-mers, each entry naming the run of its positions
// in one shared position array. Runs are in ascending position order.
type Index struct {
	ref dna.Sequence
	k   int
	// table has a power-of-two length; a k-mer's probe sequence starts at
	// slot hashKey(key) >> shift and walks forward.
	table []seedSlot
	shift uint
	pos   []int32
}

// seedSlot is one table entry: a k-mer and its run pos[start:start+count].
// An unused slot holds emptyKey and an empty run.
type seedSlot struct {
	key          uint64
	start, count int32
}

// emptyKey marks an unused slot. Index keys are masked to 2k <= 62 bits,
// so no k-mer packs to it.
const emptyKey = ^uint64(0)

// DefaultK is the default seed length: long enough to be selective on
// megabase references, short enough that three seeds fit a 100 bp read.
const DefaultK = 16

// DefaultMaxMismatch is the default per-read mismatch budget, matching the
// classic short-read aligner setting the paper's input pipeline assumes.
const DefaultMaxMismatch = 2

// BuildIndex indexes every k-mer position of the reference. It walks the
// reference twice: the first pass inserts each k-mer and counts its
// positions, a prefix sum over the table lays the runs out in one array,
// and the second pass fills each run in position order.
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
	n := len(ref) - k + 1
	// At most n distinct k-mers: a table of at least 4n/3 slots keeps the
	// load at or under 3/4.
	lg := uint(bits.Len(uint(n + n/3)))
	ix := &Index{ref: ref, k: k, table: make([]seedSlot, 1<<lg), shift: 64 - lg,
		pos: make([]int32, n)}
	for i := range ix.table {
		ix.table[i].key = emptyKey
	}
	mask := uint64(1)<<(2*k) - 1
	var key uint64
	for i, b := range ref {
		key = (key<<2 | uint64(b)) & mask
		if i >= k-1 {
			ix.slot(key).count++
		}
	}
	var next int32
	for i := range ix.table {
		s := &ix.table[i]
		s.start, next = next, next+s.count
	}
	// The fill pass uses start as the run's write cursor, leaving it one
	// run past where it began.
	for i, b := range ref {
		key = (key<<2 | uint64(b)) & mask
		if i >= k-1 {
			s := ix.slot(key)
			ix.pos[s.start] = int32(i - k + 1)
			s.start++
		}
	}
	for i := range ix.table {
		ix.table[i].start -= ix.table[i].count
	}
	return ix, nil
}

// hashKey spreads a packed k-mer over 64 bits (Fibonacci hashing); an
// index keeps the top bits.
func hashKey(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 }

// slot returns key's table entry, claiming an unused one when key is new.
func (ix *Index) slot(key uint64) *seedSlot {
	m := len(ix.table) - 1
	for h := int(hashKey(key) >> ix.shift); ; h = (h + 1) & m {
		s := &ix.table[h]
		if s.key == key {
			return s
		}
		if s.key == emptyKey {
			s.key = key
			return s
		}
	}
}

// lookup returns the ascending reference positions of key, nil if none.
func (ix *Index) lookup(key uint64) []int32 {
	m := len(ix.table) - 1
	for h := int(hashKey(key) >> ix.shift); ; h = (h + 1) & m {
		s := &ix.table[h]
		if s.key == key {
			return ix.pos[s.start : s.start+s.count]
		}
		if s.key == emptyKey {
			return nil
		}
	}
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

// cmpHit orders hits by (mismatches, position, strand). A read has at most
// one hit per (position, strand), so this is a total order and any sort
// yields the same sequence.
func cmpHit(a, b Hit) int {
	if a.Mismatches != b.Mismatches {
		return a.Mismatches - b.Mismatches
	}
	if a.Pos != b.Pos {
		return a.Pos - b.Pos
	}
	return int(a.Strand) - int(b.Strand)
}

// scratch is one shard's reusable working memory: nothing in it outlives
// the read being placed except what the slabs hand out, and a shard's
// scratch is never shared, so reads of one shard share slab chunks and no
// two shards touch the same memory.
type scratch struct {
	rc   dna.Sequence
	hits []Hit
	// runs holds the position run of each seed already looked up for the
	// current orientation; runs[s] is seed s's.
	runs  [][]int32
	bases slab.Slab[dna.Base]
	quals slab.Slab[dna.Quality]
}

// Align finds all placements of seq with at most maxMismatch mismatches,
// on both strands, sorted by (mismatches, position, strand).
func (ix *Index) Align(seq dna.Sequence, maxMismatch int) []Hit {
	var sc scratch
	sc.place(ix, seq, maxMismatch)
	slices.SortFunc(sc.hits, cmpHit)
	return sc.hits
}

// place collects in sc.hits, unordered, every placement of seq on both
// strands.
func (sc *scratch) place(ix *Index, seq dna.Sequence, maxMismatch int) {
	sc.hits = sc.hits[:0]
	sc.collect(ix, seq, 0, maxMismatch)
	rc := slices.Grow(sc.rc[:0], len(seq))[:len(seq)]
	for i, b := range seq {
		rc[len(seq)-1-i] = b.Complement()
	}
	sc.rc = rc
	sc.collect(ix, rc, 1, maxMismatch)
}

// collect seeds and verifies one orientation of the read. Pigeonhole
// seeds: maxMismatch+1 disjoint k-mers (as many as fit). Each seed
// proposes its run's positions shifted by its offset; a candidate an
// earlier seed already proposed is skipped, found by binary search in
// that seed's run, so a repeat whose every seed proposes the same
// hundreds of candidates still costs a logarithm per check.
func (sc *scratch) collect(ix *Index, seq dna.Sequence, strand uint8, maxMismatch int) {
	if len(seq) < ix.k {
		return
	}
	nSeeds := min(maxMismatch+1, len(seq)/ix.k)
	sc.runs = sc.runs[:0]
	for s := 0; s < nSeeds; s++ {
		off := s * ix.k
		run := ix.lookup(ix.kmerAt(seq, off))
	candidates:
		for _, sp := range run {
			pos := int(sp) - off
			if pos < 0 || pos+len(seq) > len(ix.ref) {
				continue
			}
			for e, earlier := range sc.runs {
				if _, dup := slices.BinarySearch(earlier, int32(pos+e*ix.k)); dup {
					continue candidates
				}
			}
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
				sc.hits = append(sc.hits, Hit{Pos: pos, Strand: strand, Mismatches: mm})
			}
		}
		sc.runs = append(sc.runs, run)
	}
}

// alignRead places one raw read, reporting ok=false when it is unmapped.
// Qualities are normalized to the sequence length before placement —
// truncated when over-long, zero-padded when short — so a malformed read
// can never produce an AlignedRead whose Bases and Quals disagree (the
// downstream pileup indexes Quals by base offset and must not panic).
// Bases and Quals are carved from the shard's slabs.
func (sc *scratch) alignRead(ix *Index, r *RawRead, maxMismatch int) (reads.AlignedRead, bool) {
	sc.place(ix, r.Seq, maxMismatch)
	if len(sc.hits) == 0 {
		return reads.AlignedRead{}, false
	}
	// The best hit is the least under cmpHit; ties are the hits sharing
	// its mismatch count.
	best, ties := sc.hits[0], 1
	for _, h := range sc.hits[1:] {
		switch {
		case h.Mismatches < best.Mismatches:
			best, ties = h, 1
		case h.Mismatches == best.Mismatches:
			ties++
			if cmpHit(h, best) < 0 {
				best = h
			}
		}
	}
	n := len(r.Seq)
	ar := reads.AlignedRead{
		ID:     r.ID,
		Pos:    best.Pos,
		Strand: best.Strand,
		Hits:   uint8(min(ties, 255)),
		Bases:  sc.bases.Carve(n),
		Quals:  sc.quals.Carve(n),
	}
	quals := r.Quals[:min(len(r.Quals), n)]
	if best.Strand == 1 {
		copy(ar.Bases, sc.rc)
		for j, q := range quals {
			ar.Quals[n-1-j] = q
		}
	} else {
		copy(ar.Bases, r.Seq)
		copy(ar.Quals, quals)
	}
	return ar, true
}

// alignRange places raws in order, appending the mapped ones to out.
func (sc *scratch) alignRange(ix *Index, raws []RawRead, maxMismatch int, out []reads.AlignedRead) []reads.AlignedRead {
	for i := range raws {
		if ar, ok := sc.alignRead(ix, &raws[i], maxMismatch); ok {
			out = append(out, ar)
		}
	}
	return out
}

// AlignReads places every raw read, returning position-sorted alignment
// records in the SNP caller's input form. Reads with no placement within
// maxMismatch are dropped (unmapped). The Hits field counts the placements
// tied with the best one, so repeat-region reads carry Hits > 1. The
// records' Bases and Quals share capacity-capped slabs; raws is not
// modified and no record aliases it.
func AlignReads(ix *Index, raws []RawRead, maxMismatch int) []reads.AlignedRead {
	var sc scratch
	out := sc.alignRange(ix, raws, maxMismatch, make([]reads.AlignedRead, 0, len(raws)))
	reads.SortByPos(out)
	return out
}

// AlignReadsParallel is AlignReads sharded across workers. Each worker
// aligns a contiguous shard of the input with scratch of its own; shards
// are concatenated in input order before the final position sort, so the
// result is byte-for-byte identical to the serial AlignReads at every
// worker count (SortByPos breaks position ties by read ID, and per-read
// placement is a pure function of the read and the index). workers <= 0
// means GOMAXPROCS.
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
		var sc scratch
		shards[w] = sc.alignRange(ix, raws[lo:hi], maxMismatch, make([]reads.AlignedRead, 0, hi-lo))
	})
	total := 0
	for _, s := range shards {
		total += len(s)
	}
	out := make([]reads.AlignedRead, 0, total)
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
