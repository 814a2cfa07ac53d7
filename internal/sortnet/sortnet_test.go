package sortnet

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"gsnp/internal/gpu"
	"gsnp/internal/par"
)

func testDevice() *gpu.Device { return gpu.NewDevice(gpu.M2050()) }

// randomBatches builds arrays with the size distribution of per-site
// base_word arrays: geometric-ish around a mean depth.
func randomBatches(numArrays, meanSize int, seed int64) *Batches {
	rng := rand.New(rand.NewSource(seed))
	b := &Batches{Bounds: make([]int32, 1, numArrays+1)}
	for i := 0; i < numArrays; i++ {
		size := 0
		switch rng.Intn(10) {
		case 0: // empty site
		case 1, 2:
			size = 1 + rng.Intn(meanSize/2+1)
		default:
			size = meanSize/2 + rng.Intn(meanSize+1)
		}
		for k := 0; k < size; k++ {
			b.Data = append(b.Data, uint32(rng.Intn(1<<17)))
		}
		b.Bounds = append(b.Bounds, int32(len(b.Data)))
	}
	return b
}

// onDevice uploads b, sorts it on the device with sort and reads it back,
// returning the sort's Stats.
func onDevice(d *gpu.Device, b *Batches, sort func(Resident, *gpu.Device) Stats) Stats {
	r := b.Upload(d)
	defer r.Download(b)
	return sort(r, d)
}

func clone(b *Batches) *Batches {
	return &Batches{
		Data:   append([]uint32(nil), b.Data...),
		Bounds: append([]int32(nil), b.Bounds...),
	}
}

// verifySorted checks every sub-array is ascending and a permutation of
// the reference batches.
func verifySorted(t *testing.T, name string, got, orig *Batches) {
	t.Helper()
	if len(got.Data) != len(orig.Data) {
		t.Fatalf("%s: data length changed", name)
	}
	for i := 0; i < got.NumArrays(); i++ {
		arr := got.Array(i)
		for k := 1; k < len(arr); k++ {
			if arr[k-1] > arr[k] {
				t.Fatalf("%s: array %d not sorted at %d: %v", name, i, k, arr)
			}
		}
		want := append([]uint32(nil), orig.Array(i)...)
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		for k := range want {
			if arr[k] != want[k] {
				t.Fatalf("%s: array %d not a permutation at %d", name, i, k)
			}
		}
	}
}

func TestMultipassBitonic(t *testing.T) {
	d := testDevice()
	orig := randomBatches(500, 12, 1)
	b := clone(orig)
	st := MultipassBitonic(d, b)
	verifySorted(t, "multipass", b, orig)
	if st.Launches == 0 || st.SimSeconds <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
}

func TestSinglePassBitonic(t *testing.T) {
	d := testDevice()
	orig := randomBatches(500, 12, 2)
	b := clone(orig)
	st := onDevice(d, b, Resident.SinglePassBitonic)
	verifySorted(t, "singlepass", b, orig)
	if st.ElementsSorted == 0 {
		t.Error("no elements sorted")
	}
}

func TestNonEqBitonic(t *testing.T) {
	d := testDevice()
	orig := randomBatches(300, 12, 3)
	b := clone(orig)
	onDevice(d, b, Resident.NonEqBitonic)
	verifySorted(t, "noneq", b, orig)
}

func TestParallelQuicksort(t *testing.T) {
	orig := randomBatches(1000, 15, 4)
	b := clone(orig)
	ParallelQuicksort(b, 8)
	verifySorted(t, "quicksort", b, orig)
	b2 := clone(orig)
	ParallelQuicksort(b2, 0) // GOMAXPROCS default
	verifySorted(t, "quicksort-default", b2, orig)
}

// TestParallelQuicksortPanicReachesCaller: the parallel sort is on by
// default on every CPU window (SortWorkers = GOMAXPROCS), so a panic on one
// of its helper goroutines — here a Batches whose Bounds run past Data in
// the second worker's range only — must come back on the caller as a
// *par.PanicError the window quarantine can contain, after the other worker
// has finished sorting its range, not kill the process.
func TestParallelQuicksortPanicReachesCaller(t *testing.T) {
	orig := randomBatches(400, 15, 6)
	b := clone(orig)
	b.Bounds[300] = int32(len(b.Data)) + 7 // arrays 299 and 300: the helper's
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		ParallelQuicksort(b, 2)
	}()
	pe, ok := recovered.(*par.PanicError)
	if !ok || !strings.Contains(string(pe.Stack), "ParallelQuicksort") {
		t.Fatalf("recovered %T %v, want a *par.PanicError with the worker's stack", recovered, recovered)
	}
	b.Bounds, orig.Bounds = b.Bounds[:201], orig.Bounds[:201]
	verifySorted(t, "the caller's own range", b, orig)
}

func TestSinglePassWastesWork(t *testing.T) {
	// The single pass pads every array to the largest size; multipass
	// sorts far fewer (padded) elements — the mechanism behind the ~5x of
	// Figure 7(b). The paper reports ~4x more elements for single pass.
	d := testDevice()
	orig := randomBatches(2000, 12, 5)
	// Inject one large array so the single-pass class is 256.
	big := make([]uint32, 200)
	for i := range big {
		big[i] = uint32(i * 7 % 251)
	}
	orig.Data = append(orig.Data, big...)
	orig.Bounds = append(orig.Bounds, int32(len(orig.Data)))

	mp := clone(orig)
	stMP := MultipassBitonic(d, mp)
	sp := clone(orig)
	stSP := onDevice(d, sp, Resident.SinglePassBitonic)
	verifySorted(t, "mp", mp, orig)
	verifySorted(t, "sp", sp, orig)
	if stSP.ElementsSorted < 3*stMP.ElementsSorted {
		t.Errorf("single pass sorted %d elements vs multipass %d; expected much more padding waste",
			stSP.ElementsSorted, stMP.ElementsSorted)
	}
	if stSP.SimSeconds <= stMP.SimSeconds {
		t.Errorf("single pass (%.3gs) not slower than multipass (%.3gs)", stSP.SimSeconds, stMP.SimSeconds)
	}
}

func TestOversizedArraysFallBackToHost(t *testing.T) {
	d := testDevice()
	rng := rand.New(rand.NewSource(6))
	big := make([]uint32, 400) // > maxClassSize
	for i := range big {
		big[i] = rng.Uint32()
	}
	orig := &Batches{Data: append([]uint32(nil), big...), Bounds: []int32{0, int32(len(big))}}
	b := clone(orig)
	MultipassBitonic(d, b)
	verifySorted(t, "oversized", b, orig)
}

func TestBatchesAccessors(t *testing.T) {
	b := &Batches{Data: []uint32{5, 1, 9, 2}, Bounds: []int32{0, 2, 2, 4}}
	if b.NumArrays() != 3 {
		t.Errorf("NumArrays = %d", b.NumArrays())
	}
	if b.SizeOf(0) != 2 || b.SizeOf(1) != 0 || b.SizeOf(2) != 2 {
		t.Error("SizeOf wrong")
	}
	if len(b.Array(1)) != 0 {
		t.Error("empty array wrong")
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 64: 64, 65: 128, 200: 256}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestQuicksortProperty(t *testing.T) {
	f := func(vals []uint32) bool {
		a := append([]uint32(nil), vals...)
		quicksort(a)
		want := append([]uint32(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if a[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRadixSortU32(t *testing.T) {
	d := testDevice()
	for _, n := range []int{1, 2, 100, 1000} {
		rng := rand.New(rand.NewSource(int64(n)))
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = rng.Uint32()
		}
		buf := gpu.Alloc[uint32](d, n)
		buf.CopyIn(vals)
		RadixSortU32(d, buf, 32)
		got := buf.Host()
		want := append([]uint32(nil), vals...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: radix sorted wrong at %d", n, i)
			}
		}
		buf.Free()
	}
}

func TestRadixSortNarrowKeys(t *testing.T) {
	d := testDevice()
	vals := []uint32{99, 3, 77, 3, 0, 127}
	buf := gpu.Alloc[uint32](d, len(vals))
	buf.CopyIn(vals)
	RadixSortU32(d, buf, 7) // keys fit in 7 bits
	got := buf.Host()
	want := []uint32{0, 3, 3, 77, 99, 127}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("narrow radix wrong: %v", got)
		}
	}
}

func TestSequentialRadixGPU(t *testing.T) {
	d := testDevice()
	orig := randomBatches(40, 12, 7)
	b := clone(orig)
	st := SequentialRadixGPU(d, b, 17)
	verifySorted(t, "seqradix", b, orig)
	if st.Launches == 0 {
		t.Error("no launches recorded")
	}
	// The whole point of the baseline: enormous launch counts per element.
	if st.ElementsSorted > 0 && st.Launches < st.ElementsSorted/4 {
		t.Logf("launches=%d elements=%d", st.Launches, st.ElementsSorted)
	}
}

func TestMultipassFasterThanSequentialRadix(t *testing.T) {
	d := testDevice()
	orig := randomBatches(300, 12, 8)
	mp := clone(orig)
	stMP := MultipassBitonic(d, mp)
	sr := clone(orig)
	stSR := SequentialRadixGPU(d, sr, 17)
	if stMP.SimSeconds >= stSR.SimSeconds {
		t.Errorf("multipass (%.3gs) not faster than sequential radix (%.3gs)", stMP.SimSeconds, stSR.SimSeconds)
	}
}
