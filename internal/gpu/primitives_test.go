package gpu

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// ReduceU32 sums the device buffer: blockReduceU32 under addition, then a
// host sum of the per-block partials. Only tests use it.
func ReduceU32(d *Device, in *Buffer[uint32]) uint64 {
	if in.Len() == 0 {
		return 0
	}
	partial := blockReduceU32(d, in, "reduce_u32", func(a, b uint32) uint32 { return a + b })
	defer partial.Free()
	var sum uint64
	for _, p := range partial.Host() {
		sum += uint64(p)
	}
	return sum
}

// TestReduceU32 covers the sum and the max reduction at lengths around the
// block size and around the tile a block folds (primBlock x reduceLoads).
func TestReduceU32(t *testing.T) {
	d := testDevice()
	const tile = primBlock * reduceLoads
	for _, n := range []int{0, 1, 255, 256, 257, tile - 1, tile, tile + 1, 10000} {
		src := make([]uint32, n)
		var wantSum uint64
		var wantMax uint32
		for i := range src {
			src[i] = uint32(i*7919) % 9973
			wantSum += uint64(src[i])
			wantMax = max(wantMax, src[i])
		}
		buf := Alloc[uint32](d, n)
		buf.CopyIn(src)
		if got := ReduceU32(d, buf); got != wantSum {
			t.Errorf("n=%d: ReduceU32 = %d, want %d", n, got, wantSum)
		}
		if got := ReduceMaxU32(d, buf); got != wantMax {
			t.Errorf("n=%d: ReduceMaxU32 = %d, want %d", n, got, wantMax)
		}
		buf.Free()
	}
	top := Alloc[uint32](d, 3)
	defer top.Free()
	top.CopyIn([]uint32{5, ^uint32(0), 0})
	if got := ReduceMaxU32(d, top); got != ^uint32(0) {
		t.Errorf("ReduceMaxU32 = %d, want the largest uint32", got)
	}
}

func TestExclusiveScanU32(t *testing.T) {
	d := testDevice()
	for _, n := range []int{1, 2, 255, 256, 257, 5000} {
		src := make([]uint32, n)
		for i := range src {
			src[i] = uint32(rand.Intn(10))
		}
		in := Alloc[uint32](d, n)
		out := Alloc[uint32](d, n)
		in.CopyIn(src)
		total := ExclusiveScanU32(d, in, out)
		var run uint64
		for i := 0; i < n; i++ {
			if out.Host()[i] != uint32(run) {
				t.Fatalf("n=%d: scan[%d] = %d, want %d", n, i, out.Host()[i], run)
			}
			run += uint64(src[i])
		}
		if total != run {
			t.Errorf("n=%d: total = %d, want %d", n, total, run)
		}
		in.Free()
		out.Free()
	}
}

func TestExclusiveScanShortOutputPanics(t *testing.T) {
	d := testDevice()
	in := Alloc[uint32](d, 10)
	out := Alloc[uint32](d, 5)
	defer func() {
		if recover() == nil {
			t.Error("short output accepted")
		}
	}()
	ExclusiveScanU32(d, in, out)
}

func TestSortU32(t *testing.T) {
	d := testDevice()
	for _, n := range []int{0, 1, 2, 100, 256, 1000, 4096, 5000} {
		src := make([]uint32, n)
		for i := range src {
			src[i] = rand.Uint32()
		}
		buf := Alloc[uint32](d, n)
		buf.CopyIn(src)
		SortU32(d, buf)
		got := buf.Host()
		want := append([]uint32(nil), src...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: sorted[%d] = %d, want %d", n, i, got[i], want[i])
			}
		}
		buf.Free()
	}
}

func TestSortU32Property(t *testing.T) {
	d := testDevice()
	f := func(src []uint32) bool {
		if len(src) > 2000 {
			src = src[:2000]
		}
		buf := Alloc[uint32](d, len(src))
		buf.CopyIn(src)
		SortU32(d, buf)
		defer buf.Free()
		got := buf.Host()
		// Sortedness.
		for i := 1; i < len(got); i++ {
			if got[i-1] > got[i] {
				return false
			}
		}
		// Permutation (multiset equality via sorted copies).
		want := append([]uint32(nil), src...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestUniqueU32(t *testing.T) {
	d := testDevice()
	src := []uint32{1, 1, 1, 2, 5, 5, 9, 9, 9, 9, 12}
	in := Alloc[uint32](d, len(src))
	in.CopyIn(src)
	out := UniqueU32(d, in)
	defer out.Free()
	want := []uint32{1, 2, 5, 9, 12}
	if out.Len() != len(want) {
		t.Fatalf("unique count = %d, want %d", out.Len(), len(want))
	}
	for i := range want {
		if out.Host()[i] != want[i] {
			t.Errorf("unique[%d] = %d, want %d", i, out.Host()[i], want[i])
		}
	}

	empty := Alloc[uint32](d, 0)
	if got := UniqueU32(d, empty); got.Len() != 0 {
		t.Error("unique of empty not empty")
	}
}

// TestDistinctU32 holds the presence table against sort + unique, and its
// device program against the host schedule: dict_mark stores to the same
// slot from many lanes, so with its blocks forced onto helper goroutines
// the result, every counter and the launch log must equal the inline run's
// (and the race detector must stay quiet).
func TestDistinctU32(t *testing.T) {
	const n, limit = 5000, 300
	src := make([]uint32, n)
	for i := range src {
		src[i] = uint32(rand.Intn(limit/3)) * 3
	}
	src[n-1] = limit - 1
	run := func(workers int) ([]uint32, Stats, []string) {
		d := testDevice()
		d.forceWorkers = workers
		in := Alloc[uint32](d, n)
		defer in.Free()
		in.CopyIn(src)
		out := DistinctU32(d, in, limit)
		defer out.Free()
		st := d.Stats()
		st.SimSeconds = 0 // a float sum, not a count
		var names []string
		for _, ls := range d.Launches() {
			names = append(names, ls.Name)
		}
		return append([]uint32(nil), out.Host()...), st, names
	}
	got, stats, names := run(1)

	d := testDevice()
	sorted := Alloc[uint32](d, n)
	defer sorted.Free()
	sorted.CopyIn(src)
	SortU32(d, sorted)
	want := UniqueU32(d, sorted)
	defer want.Free()
	if !reflect.DeepEqual(got, want.Host()) {
		t.Fatalf("presence table found %v, sort + unique %v", got, want.Host())
	}
	if wantNames := []string{"dict_mark", "scan_u32", "scan_carry", "dict_compact"}; !reflect.DeepEqual(names, wantNames) {
		t.Errorf("launches %v, want %v", names, wantNames)
	}
	for _, workers := range []int{2, 4} {
		g, st, nm := run(workers)
		if !reflect.DeepEqual(g, got) || st != stats || !reflect.DeepEqual(nm, names) {
			t.Errorf("%d workers: device program differs from the inline run:\n got %v %+v %v\nwant %v %+v %v", workers, g, st, nm, got, stats, names)
		}
	}

	empty := Alloc[uint32](d, 0)
	if got := DistinctU32(d, empty, 1); got.Len() != 0 {
		t.Error("distinct of empty not empty")
	}
}

func TestBatchBinarySearchU32(t *testing.T) {
	d := testDevice()
	dict := []uint32{3, 7, 10, 42, 99}
	keys := []uint32{42, 3, 99, 10, 7, 42}
	kb := Alloc[uint32](d, len(keys))
	kb.CopyIn(keys)
	out := Alloc[uint32](d, len(keys))
	BatchBinarySearchU32(d, kb, dict, out)
	want := []uint32{3, 0, 4, 2, 1, 3}
	for i := range want {
		if out.Host()[i] != want[i] {
			t.Errorf("search[%d] = %d, want %d", i, out.Host()[i], want[i])
		}
	}
}

func TestBatchBinarySearchLargeDictFallsBackToGlobal(t *testing.T) {
	d := testDevice()
	// 64 KB constant memory / 4 B = 16384 entries; use more to force the
	// global-memory path.
	dict := make([]uint32, 20000)
	for i := range dict {
		dict[i] = uint32(2 * i)
	}
	keys := []uint32{0, 2, 39998}
	kb := Alloc[uint32](d, len(keys))
	kb.CopyIn(keys)
	out := Alloc[uint32](d, len(keys))
	before := d.Stats().ConstLoads
	BatchBinarySearchU32(d, kb, dict, out)
	if d.Stats().ConstLoads != before {
		t.Error("large dictionary unexpectedly used constant memory")
	}
	want := []uint32{0, 1, 19999}
	for i := range want {
		if out.Host()[i] != want[i] {
			t.Errorf("search[%d] = %d, want %d", i, out.Host()[i], want[i])
		}
	}
}

func TestSortVsUniquePipeline(t *testing.T) {
	// The DICT build path: sort then unique, as Section V-B describes.
	d := testDevice()
	src := make([]uint32, 3000)
	for i := range src {
		src[i] = uint32(rand.Intn(50))
	}
	buf := Alloc[uint32](d, len(src))
	buf.CopyIn(src)
	SortU32(d, buf)
	out := UniqueU32(d, buf)
	defer out.Free()

	seen := map[uint32]bool{}
	for _, v := range src {
		seen[v] = true
	}
	if out.Len() != len(seen) {
		t.Fatalf("dictionary size = %d, want %d", out.Len(), len(seen))
	}
	for i := 1; i < out.Len(); i++ {
		if out.Host()[i-1] >= out.Host()[i] {
			t.Fatal("dictionary not strictly increasing")
		}
	}
}
