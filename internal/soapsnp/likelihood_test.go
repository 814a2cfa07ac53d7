package soapsnp

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/pipeline"
	"gsnp/internal/reads"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

// refLikelihood is Algorithm 1 as the paper writes it: every element of
// base_occ within the read length visited one byte at a time, in base /
// score (descending) / coordinate / strand order. It shares nothing with
// DenseLikelihood's sweep and is the oracle the tests below hold it to.
func refLikelihood(baseOcc []uint8, t *bayes.Tables, readLen int, tl *[bayes.TypeLikelySize]float64) (nonZero int) {
	*tl = [bayes.TypeLikelySize]float64{}
	dep := make([]uint16, 2*readLen)
	for base := dna.Base(0); base < dna.NBases; base++ {
		clear(dep)
		for score := bayes.NQ - 1; score >= 0; score-- {
			for coord := 0; coord < readLen; coord++ {
				for strand := 0; strand < bayes.NStrands; strand++ {
					occ := baseOcc[bayes.BaseOccIndex(base, dna.Quality(score), coord, strand)]
					if occ == 0 {
						continue
					}
					nonZero++
					for k := uint8(0); k < occ; k++ {
						dep[strand*readLen+coord]++
						qadj := t.Adjust.Adjust(dna.Quality(score), dep[strand*readLen+coord])
						for a1 := dna.Base(0); a1 < dna.NBases; a1++ {
							for a2 := a1; a2 < dna.NBases; a2++ {
								tl[a1<<2|a2] += bayes.LikelyUpdate(t.P, qadj, coord, base, a1, a2)
							}
						}
					}
				}
			}
		}
	}
	return nonZero
}

// checkAgainstReference runs DenseLikelihood and refLikelihood over one
// site and requires the same bits in every type_likely entry, the same
// non-zero count and a dep_count left clean. tl goes in dirty: the call
// owns resetting it.
func checkAgainstReference(t *testing.T, name string, baseOcc []uint8, tables *bayes.Tables, s *LikeliScratch) {
	t.Helper()
	readLen := len(s.depCount) / 2
	var want, got [bayes.TypeLikelySize]float64
	for i := range got {
		got[i] = float64(i) - 3.5
	}
	wantNZ := refLikelihood(baseOcc, tables, readLen, &want)
	gotNZ := DenseLikelihood(baseOcc, tables, s, &got)
	if gotNZ != wantNZ {
		t.Errorf("%s (readLen %d): nonZero = %d, byte-at-a-time reference %d", name, readLen, gotNZ, wantNZ)
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Errorf("%s (readLen %d): type_likely[%d] = %v, byte-at-a-time reference %v", name, readLen, i, got[i], want[i])
		}
	}
	if i := slices.IndexFunc(s.depCount, func(c uint16) bool { return c != 0 }); i >= 0 {
		t.Errorf("%s (readLen %d): dep_count[%d] = %d on return, want all zero", name, readLen, i, s.depCount[i])
		clear(s.depCount)
	}
}

// TestDenseLikelihoodMatchesByteReference holds the sweep + canonical-order
// pass to the byte-at-a-time reference: random sparse sites, and directed
// ones at every place the 64-byte grouping, the 8-byte words or the
// read-length clamp could lose or invent an observation. Read lengths 36,
// 100 and 256 put the clamp on a word boundary, 150 inside a word.
func TestDenseLikelihoodMatchesByteReference(t *testing.T) {
	tables := bayes.BuildTables(bayes.NewPMatrixFromPhred())
	baseOcc := make([]uint8, bayes.BaseOccSize)
	for _, readLen := range []int{36, 100, 150, 256} {
		s := NewLikeliScratch(readLen)
		// check runs one site holding the given (index, count) pairs, then
		// empties it again.
		check := func(name string, at ...int) {
			t.Helper()
			for i := 0; i < len(at); i += 2 {
				baseOcc[at[i]] = uint8(at[i+1])
			}
			checkAgainstReference(t, name, baseOcc, tables, &s)
			for i := 0; i < len(at); i += 2 {
				baseOcc[at[i]] = 0
			}
		}

		check("empty site")

		// One byte at each position of a 64-byte group (coords 32-63, both
		// strands, inside every clamp but 36's), alone and next to a
		// neighbour in the same group.
		group := bayes.BaseOccIndex(dna.C, 30, 32, 0)
		for i := 0; i < groupBytes; i++ {
			check(fmt.Sprintf("group byte %d", i), group+i, 1)
			check(fmt.Sprintf("group bytes %d and %d", i, (i+9)%groupBytes), group+i, 1, group+(i+9)%groupBytes, 2)
		}

		// The last group of a score row, of a base block and of the site,
		// with the first byte of what follows it in memory.
		lastOfRow := bayes.BaseOccIndex(dna.A, 17, bayes.MaxReadLen-1, 1)
		check("last byte of a score row", lastOfRow, 1, lastOfRow+1, 1, lastOfRow-groupBytes+1, 1)
		lastOfBase := bayes.BaseOccIndex(dna.G, bayes.NQ-1, bayes.MaxReadLen-1, 1)
		check("last byte of a base block", lastOfBase, 3, lastOfBase+1, 1, lastOfBase-groupBytes+1, 1)
		check("last byte of the site", bayes.BaseOccSize-1, 2, bayes.BaseOccSize-groupBytes, 1)
		check("first byte of the site", 0, 1)

		// Either side of the clamp: coord readLen-1 counts, coord >= readLen
		// is neither read nor counted.
		check("coord readLen-1",
			bayes.BaseOccIndex(dna.T, 40, readLen-1, 0), 1, bayes.BaseOccIndex(dna.T, 40, readLen-1, 1), 2)
		if readLen < bayes.MaxReadLen {
			check("coord readLen",
				bayes.BaseOccIndex(dna.T, 40, readLen, 0), 1, bayes.BaseOccIndex(dna.T, 40, readLen, 1), 1)
			check("both sides of the clamp",
				bayes.BaseOccIndex(dna.T, 40, readLen-1, 1), 1, bayes.BaseOccIndex(dna.T, 40, readLen, 0), 1,
				bayes.BaseOccIndex(dna.A, 2, bayes.MaxReadLen-1, 1), 4)
		}

		// A saturated counter, stacked on lower scores at the same
		// coordinate so dep_count climbs past it.
		check("counter at 255",
			bayes.BaseOccIndex(dna.G, 35, 7, 1), 255, bayes.BaseOccIndex(dna.G, 20, 7, 1), 3, bayes.BaseOccIndex(dna.A, 35, 7, 1), 1)

		// Random sparse sites: 0-40 non-zero counters anywhere in the
		// matrix, a few of them stacked.
		rng := rand.New(rand.NewSource(int64(readLen)))
		for trial := 0; trial < 60; trial++ {
			var at []int
			for k := rng.Intn(41); k > 0; k-- {
				at = append(at, rng.Intn(bayes.BaseOccSize), 1+rng.Intn(3)*rng.Intn(2))
			}
			check(fmt.Sprintf("random site %d", trial), at...)
		}
		// Dense patches: a run of consecutive non-zero bytes across group
		// and row boundaries.
		for trial := 0; trial < 8; trial++ {
			var at []int
			first := rng.Intn(bayes.BaseOccSize - 200)
			for i := 0; i < 200; i++ {
				at = append(at, first+i, 1)
			}
			check(fmt.Sprintf("dense patch %d", trial), at...)
		}
	}
}

// benchSite is the 11-observation site of BenchmarkDenseLikelihoodSparseSite.
func benchSite() []uint8 {
	baseOcc := make([]uint8, bayes.BaseOccSize)
	for k := 0; k < 11; k++ {
		baseOcc[bayes.BaseOccIndex(dna.Base(k&3), dna.Quality(20+k*3), 5+k*7, k&1)] = 1
	}
	return baseOcc
}

// TestDenseLikelihoodDoesNotAllocate: the non-zero offsets go to the
// caller's scratch, so a site's likelihood allocates nothing.
func TestDenseLikelihoodDoesNotAllocate(t *testing.T) {
	tables := bayes.BuildTables(bayes.NewPMatrixFromPhred())
	baseOcc := benchSite()
	s := NewLikeliScratch(100)
	var tl [bayes.TypeLikelySize]float64
	if allocs := testing.AllocsPerRun(100, func() { DenseLikelihood(baseOcc, tables, &s, &tl) }); allocs != 0 {
		t.Errorf("DenseLikelihood allocates %.1f times per site, want 0", allocs)
	}
}

// directEngine builds an engine ready for direct kernel calls — the state
// Prepare would set up, over fixed Phred tables and a discarded row sink —
// and fetches the reads of the window [0, window).
func directEngine(t *testing.T, ds *seqsim.Dataset, window, threads int) (*Engine, []reads.AlignedRead) {
	t.Helper()
	eng := New(Config{Threads: threads})
	eng.tables = *bayes.BuildTables(bayes.NewPMatrixFromPhred())
	eng.run = &pipeline.RunState{
		Config: pipeline.Config{Chr: ds.Spec.Name, Ref: ds.Ref.Seq, Priors: bayes.DefaultPriors(), Window: window},
		Stride: pipeline.MinStride,
		Report: &pipeline.Report{Sites: len(ds.Ref.Seq), NonZeroHist: make([]int64, pipeline.SparsityHistSize)},
		Out:    pipeline.RowSink(snpio.NewResultWriter(io.Discard)),
	}
	eng.allocWindow(window, eng.run.Stride)
	it, err := pipeline.MemSource(ds.Reads).Open()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := pipeline.NewWindower(it).Reads(0, window)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rs
}

// TestWindowWarmAllocs: once the per-site quality lists have reached their
// capacity, a window's allocations are a constant — the fork-join's
// closures at Threads > 1 — whatever its number of sites: nothing is
// allocated per site, per thread-shard or per non-zero element.
func TestWindowWarmAllocs(t *testing.T) {
	ds := testDataset(t, 1000, 10, 91)
	for _, threads := range []int{1, 4} {
		var allocs [2]float64
		for i, window := range []int{64, 512} {
			eng, rs := directEngine(t, ds, window, threads)
			run := func() {
				if err := eng.Window(rs, 0, window); err != nil {
					t.Fatal(err)
				}
			}
			run()
			allocs[i] = testing.AllocsPerRun(3, run)
		}
		t.Logf("threads=%d: %.0f allocations per warm 64-site window, %.0f per 512-site window", threads, allocs[0], allocs[1])
		if allocs[1] > allocs[0] || allocs[1] > 8 {
			t.Errorf("threads=%d: a warm window allocates %.0f times at 64 sites and %.0f at 512, want the same small constant",
				threads, allocs[0], allocs[1])
		}
	}
}

// TestCountMatchesObsOf holds the counting loop to the rule pipeline.ObsOf
// defines — which bases of a read enter the window, at which site, with
// which base, score, cycle, strand and uniqueness — on reads of both strands
// and both uniqueness classes that straddle either window edge, start before
// position 0, cover the whole window, miss it, and run longer than the
// model's cycle range (the counterpart of gsnp's TestFlattenMatchesObsOf).
func TestCountMatchesObsOf(t *testing.T) {
	ds := testDataset(t, 3000, 6, 12)
	const start, end = 1000, 1200
	rs := append([]reads.AlignedRead(nil), ds.Reads...)
	for i, pos := range []int{-30, start - 40, end - 40, start - 10, end, end + 5, 0} {
		r := ds.Reads[i]
		r.Pos, r.Strand, r.Hits = pos, uint8(i&1), uint8(1+i%3)
		rs = append(rs, r)
	}
	for strand := uint8(0); strand < 2; strand++ {
		long := reads.AlignedRead{Pos: start - 50, Strand: strand, Hits: 1}
		for len(long.Bases) < bayes.MaxReadLen+150 {
			long.Bases = append(long.Bases, ds.Reads[0].Bases...)
			long.Quals = append(long.Quals, ds.Reads[0].Quals...)
		}
		rs = append(rs, long)
		long.Pos = -(bayes.MaxReadLen + 100) // only its tail reaches position 0
		rs = append(rs, long)
	}

	const n = end - start
	eng := New(Config{})
	eng.allocWindow(n, pipeline.MinStride)
	wantOcc := make([]uint8, n*bayes.BaseOccSize)
	for _, win := range [][2]int{{start, end}, {0, n}} {
		clear(wantOcc)
		wantCounts := make([]pipeline.SiteCounts, n)
		wantQuals := make([][dna.NBases][]float64, n)
		observations := 0
		for i := range rs {
			for pos := win[0]; pos < win[1]; pos++ {
				o, ok := pipeline.ObsOf(&rs[i], pos)
				if !ok {
					continue
				}
				observations++
				site := pos - win[0]
				wantOcc[site*bayes.BaseOccSize+bayes.BaseOccIndex(o.Base, o.Qual, int(o.Coord), int(o.Strand))]++
				wantCounts[site].Add(o)
				wantQuals[site][o.Base] = append(wantQuals[site][o.Base], float64(o.Qual))
			}
		}
		eng.count(rs, win[0], win[1])
		if observations == 0 || !bytes.Equal(eng.baseOcc, wantOcc) {
			t.Errorf("window [%d,%d): base_occ differs from the ObsOf rule's (%d observations)", win[0], win[1], observations)
		}
		if !slices.Equal(eng.counts, wantCounts) {
			t.Errorf("window [%d,%d): site counts differ from the ObsOf rule's", win[0], win[1])
		}
		for site := range wantQuals {
			for b := range wantQuals[site] {
				if !slices.Equal(eng.quals[site][b], wantQuals[site][b]) {
					t.Fatalf("window [%d,%d): site %d base %d quality list = %v, the ObsOf rule's %v",
						win[0], win[1], site, b, eng.quals[site][b], wantQuals[site][b])
				}
			}
		}
		eng.resetWindow(n)
	}
}
