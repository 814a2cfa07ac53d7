package gsnp

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/reads"
)

// TestCountGPUMatchesCountCPU holds the device's per-site gather to the
// host's run walk: the same words in the same slots before the sort, the
// same bounds and the same per-site summaries, at GOMAXPROCS 1 and 2 with
// one device program. The windows cover reads longer than bayes.MaxReadLen
// on both strands (a suffix or a prefix trimmed), reads clipped at either
// window edge, a coverage gap, and a window without reads. At GOMAXPROCS=1
// the atomic program countGPU replaced (countAtomic) must give the same
// words in the same order, bounds and summaries too.
func TestCountGPUMatchesCountCPU(t *testing.T) {
	ds := testDataset(t, 1500, 9, 113)
	long := func(pos int, strand uint8) reads.AlignedRead {
		r := reads.AlignedRead{Pos: pos, Strand: strand, Hits: 1 + strand}
		for len(r.Bases) < bayes.MaxReadLen+150 {
			r.Bases = append(r.Bases, ds.Reads[0].Bases...)
			r.Quals = append(r.Quals, ds.Reads[0].Quals...)
		}
		return r
	}
	clipped := slices.Clone(ds.Reads)
	for _, pos := range []int{250, 1100, 400} {
		clipped = append(clipped, long(pos, 0), long(pos, 1))
	}
	reads.SortByPos(clipped)
	var gapped []reads.AlignedRead
	for _, r := range clipped {
		if r.Pos+len(r.Bases) <= 600 || r.Pos >= 800 {
			gapped = append(gapped, r)
		}
	}

	eng, err := New(Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		rs         []reads.AlignedRead
		start, end int
	}{
		{"dataset", ds.Reads, 0, 1500},
		{"clipped", clipped, 300, 1200},
		{"gap", gapped, 0, 1500},
		{"empty", nil, 0, 500},
	} {
		w := new(window)
		w.reset(c.start, c.end)
		w.flatten(c.rs)
		if err := countsAgree(eng, w); err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if c.name != "empty" && len(w.runs) == 0 {
			t.Fatalf("%s: no runs; the case is vacuous", c.name)
		}
		if c.name == "gap" && w.counts[700].Depth != 0 {
			t.Fatalf("gap: depth %d at site 700; the case has no gap", w.counts[700].Depth)
		}
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			words, bounds, stats := eng.countAtomic(w)
			if !slices.Equal(words, w.words.Data) || !slices.Equal(bounds, w.hostBounds) || !slices.Equal(stats, w.hostStats) {
				t.Errorf("%s: the atomic program disagrees at GOMAXPROCS=1: words %t, bounds %t, summaries %t", c.name,
					slices.Equal(words, w.words.Data), slices.Equal(bounds, w.hostBounds), slices.Equal(stats, w.hostStats))
			}
		}()
	}
}

// TestCountGatherBoundedByMaxReadLen: a site's gather scans the runs whose
// first kept site lies less than maxExtent sites before it, and a run keeps
// at most bayes.MaxReadLen sites however long its read, so a read of
// thousands of bases on either strand widens every site's scan to at most
// MaxReadLen sites of run starts. With the scan measured from the read's
// clamped start instead, one such read would make every site of the window
// scan thousands of sites of runs.
func TestCountGatherBoundedByMaxReadLen(t *testing.T) {
	const n = 20000
	ds := testDataset(t, n, 10, 41)
	eng, err := New(Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	if err != nil {
		t.Fatal(err)
	}
	fillLoads := func(rs []reads.AlignedRead) (loads int64, meanLen float64) {
		w := new(window)
		w.reset(0, n)
		w.flatten(rs)
		if err := countsAgree(eng, w); err != nil {
			t.Fatal(err)
		}
		for _, l := range eng.cfg.Device.Launches() {
			if l.Name == "count_fill" {
				loads += l.Stats.GlobalLoads
			}
		}
		return loads, float64(len(w.obsWord)) / float64(len(w.runs))
	}
	without, meanLen := fillLoads(ds.Reads)
	with := slices.Clone(ds.Reads)
	for strand := uint8(0); strand < 2; strand++ {
		r := reads.AlignedRead{Pos: 3000 + 7000*int(strand), Strand: strand, Hits: 1}
		for len(r.Bases) < 5000 {
			r.Bases = append(r.Bases, ds.Reads[0].Bases...)
			r.Quals = append(r.Quals, ds.Reads[0].Quals...)
		}
		with = append(with, r)
	}
	reads.SortByPos(with)
	got, _ := fillLoads(with)
	if limit := int64(float64(without) * (bayes.MaxReadLen/meanLen + 1)); got > limit {
		t.Errorf("two 5000-base reads raise count_fill's loads from %d to %d, past %d (MaxReadLen over the mean run of %.0f sites, plus one, times the window without them)",
			without, got, limit, meanLen)
	}
}

// TestEngineCallsNoAtomic: the window kernels give every word and every
// summary one writer, so no non-test file of the package calls the
// device's atomics (countAtomic, the oracle, does).
func TestEngineCallsNoAtomic(t *testing.T) {
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok && strings.HasPrefix(sel.Sel.Name, "Atomic") {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "gpu" {
					t.Errorf("%s: gpu.%s", fset.Position(sel.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// FuzzCountGPU draws a read set — lengths 1-400, both strands and both
// uniqueness classes, duplicate starts, positions around either edge of a
// window of fuzzBlocks·likeliBlock sites, wide enough for the per-site
// launches to fan out — and holds countGPU to countCPU on it as
// TestCountGPUMatchesCountCPU does. Each read is four bytes:
//
//	start offset/3, length low byte, length high bit | quality seed,
//	strand | hits | base seed | which edge (bit 7)
func FuzzCountGPU(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{10, 99, 0, 0x00, 10, 99, 0, 0x01, 200, 143, 1, 0x82, 133, 255, 1, 0x83})
	f.Add([]byte{0, 0, 0, 0x80, 255, 0, 0, 0x00, 134, 44, 3, 0x03, 134, 44, 2, 0x81})

	eng, err := New(Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	if err != nil {
		f.Fatal(err)
	}
	w := new(window)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := fuzzBlocks * likeliBlock
		var rs []reads.AlignedRead
		for ; len(data) >= 4; data = data[4:] {
			b := data[:4]
			r := reads.AlignedRead{
				ID:     int64(len(rs)),
				Pos:    int(b[3]>>7)*n - 400 + 3*int(b[0]),
				Strand: b[3] & 1,
				Hits:   1 + b[3]>>1&1,
			}
			x := uint32(b[2])<<8 | uint32(b[3]) | 1
			for k := (int(b[1]) | int(b[2]&1)<<8) % 400; k >= 0; k-- {
				x ^= x << 13
				x ^= x >> 17
				x ^= x << 5
				r.Bases = append(r.Bases, dna.Base(x&3))
				r.Quals = append(r.Quals, dna.Quality(x>>2%dna.QMax))
			}
			rs = append(rs, r)
		}
		reads.SortByPos(rs)
		w.reset(0, n)
		w.flatten(rs)
		if err := countsAgree(eng, w); err != nil {
			t.Fatal(err)
		}
	})
}

// countsAgree runs countCPU over w, then countGPU at GOMAXPROCS 1 and 2,
// and reports the first difference in the segments' words before the sort,
// their bounds or the per-site summaries, or between the two device
// programs (every launch's statistics and the copy volumes).
func countsAgree(eng *Engine, w *window) error {
	eng.countCPU(w)
	words, bounds, counts := slices.Clone(w.words.Data), slices.Clone(w.words.Bounds), slices.Clone(w.counts)
	d := eng.cfg.Device
	gBounds := gpu.Alloc[uint32](d, w.n+1)
	defer gBounds.Free()
	var program []gpu.LaunchStats
	var copies gpu.Stats
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			d.ResetStats()
			eng.countGPU(w, gBounds)
		}()
		if i := firstDiff(w.words.Data, words); i >= 0 {
			return fmt.Errorf("GOMAXPROCS=%d: word %d of %d is %#x on the device, %#x on the host", procs, i, len(words), w.words.Data[i], words[i])
		}
		if i := firstDiff(w.words.Bounds, bounds); i >= 0 {
			return fmt.Errorf("GOMAXPROCS=%d: site %d's segment starts at %d on the device, %d on the host", procs, i, w.words.Bounds[i], bounds[i])
		}
		if i := firstDiff(w.counts, counts); i >= 0 {
			return fmt.Errorf("GOMAXPROCS=%d: site %d summaries differ:\n gpu %+v\n cpu %+v", procs, i, w.counts[i], counts[i])
		}
		launches, tot := d.Launches(), d.Stats()
		tot.SimSeconds = 0
		if procs == 1 {
			program, copies = launches, tot
		} else if !reflect.DeepEqual(launches, program) || tot != copies {
			return fmt.Errorf("GOMAXPROCS=%d: device program differs from GOMAXPROCS=1:\n got %+v\nwant %+v", procs, launches, program)
		}
	}
	return nil
}

// firstDiff returns the first index at which a and b differ, or -1.
func firstDiff[T comparable](a, b []T) int {
	for i := range max(len(a), len(b)) {
		if i >= len(a) || i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}

// countAtomic is the counting program countGPU replaced, kept as its
// oracle: one thread per observation, a slot in the site's segment claimed
// with an atomic add on a per-site cursor, the summaries accumulated with
// atomic adds. At GOMAXPROCS=1 every launch runs its blocks in order, so
// the slots follow the observations in run order, as countGPU's gather
// does; at higher counts the slot order follows goroutine interleaving and
// only the sorted segments agree. It returns the words, the n segment
// starts and the summaries in count_fill's layout.
func (e *Engine) countAtomic(w *window) (words, bounds, stats []uint32) {
	var site, word []uint32
	for _, r := range w.runs {
		for s := r.first; s < r.end; s++ {
			site = append(site, s)
			word = append(word, w.obsWord[r.off+s-r.first])
		}
	}
	d := e.cfg.Device
	n, m := w.n, len(word)
	obsSite := gpu.Alloc[uint32](d, m)
	defer obsSite.Free()
	obsSite.CopyIn(site)
	obsWord := gpu.Alloc[uint32](d, m)
	defer obsWord.Free()
	obsWord.CopyIn(word)

	siteCount := gpu.Alloc[uint32](d, n)
	defer siteCount.Free()
	gBounds := gpu.Alloc[uint32](d, n)
	defer gBounds.Free()
	cfg := gpu.LaunchConfig{Name: "count_sites", Grid: (m + likeliBlock - 1) / likeliBlock, Block: likeliBlock}
	if m > 0 {
		d.MustLaunch(cfg, func(t *gpu.Thread) {
			if i := t.GlobalID(); i < m {
				gpu.AtomicAddU32(t, siteCount, int(gpu.Ld(t, obsSite, i)), 1)
			}
		})
	}
	gpu.ExclusiveScanU32(d, siteCount, gBounds)

	gWords := gpu.Alloc[uint32](d, m)
	defer gWords.Free()
	cursor := gpu.Alloc[uint32](d, n)
	defer cursor.Free()
	gStats := gpu.Alloc[uint32](d, 3*4*n) // count, qualsum, uniq per (site, base)
	defer gStats.Free()
	cfg.Name = "count_scatter"
	if m > 0 {
		d.MustLaunch(cfg, func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= m {
				return
			}
			site := int(gpu.Ld(t, obsSite, i))
			word := gpu.Ld(t, obsWord, i)
			t.Exec(5)
			off := gpu.Ld(t, gBounds, site) + gpu.AtomicAddU32(t, cursor, site, 1)
			gpu.St(t, gWords, int(off), word&^wordUniqBit)
			base := int(word >> 15 & 3)
			sb := site*4 + base
			gpu.AtomicAddU32(t, gStats, sb, 1)
			gpu.AtomicAddU32(t, gStats, 4*n+sb, dna.QMax-1-word>>9&(dna.QMax-1))
			gpu.AtomicAddU32(t, gStats, 8*n+sb, word>>18&1)
		})
	}
	words, bounds, stats = make([]uint32, m), make([]uint32, n), make([]uint32, siteStats*n)
	gWords.CopyOut(words)
	gBounds.CopyOut(bounds)
	for s := 0; s < n; s++ {
		for k := 0; k < 3; k++ {
			copy(stats[siteStats*s+4*k:][:4], gStats.Host()[4*(k*n+s):][:4])
		}
	}
	return words, bounds, stats
}
