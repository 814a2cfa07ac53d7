package sortnet

import (
	"math/rand"
	"slices"
	"testing"

	"gsnp/internal/gpu"
)

// hostStagedMultipass is the multipass sort as it ran before the arrays
// stayed on the device: each size class staged into its batch through the
// batch's Host storage and copied back the same way, and the oversized
// arrays sorted on the host in place. It is the oracle of the
// device-resident sort (FuzzMultipassResident): the same batches through
// the same batch_bitonic launches, so the same elements in the same order.
func hostStagedMultipass(d *gpu.Device, b *Batches) Stats {
	var st Stats
	for ci, class := range multipassClasses {
		if class == 1 {
			continue
		}
		lo := 1
		if ci > 0 {
			lo = multipassClasses[ci-1] + 1
		}
		hostStagedClass(d, b, lo, class, class, &st)
	}
	for i := 0; i < b.NumArrays(); i++ {
		if b.SizeOf(i) > maxClassSize {
			quicksort(b.Array(i))
		}
	}
	return st
}

// hostStagedClass is sortClass before batch_gather and batch_scatter: the
// members of [lo, hi] padded to class size into the batch's Host storage,
// sorted by the equal-size bitonic kernel and copied back.
func hostStagedClass(d *gpu.Device, b *Batches, lo, hi, class int, st *Stats) {
	n := 0
	for i := 0; i < b.NumArrays(); i++ {
		if s := b.SizeOf(i); s >= lo && s <= hi {
			n++
		}
	}
	if n == 0 {
		return
	}
	class = ceilPow2(class)
	batch := gpu.Alloc[uint32](d, n*class)
	defer batch.Free()
	host := batch.Host()
	k := 0
	for i := 0; i < b.NumArrays(); i++ {
		s := b.SizeOf(i)
		if s < lo || s > hi {
			continue
		}
		copy(host[k*class:], b.Array(i))
		for j := s; j < class; j++ {
			host[k*class+j] = padValue
		}
		k++
	}
	st.Launches += int64(batchBitonicEqual(d, batch, class))
	st.ElementsSorted += int64(n * class)
	k = 0
	for i := 0; i < b.NumArrays(); i++ {
		s := b.SizeOf(i)
		if s < lo || s > hi {
			continue
		}
		copy(b.Array(i), host[k*class:k*class+s])
		k++
	}
}

// classEdges are the array sizes at every edge of the multipass classes,
// the oversized bound included.
var classEdges = []int{0, 1, 2, 8, 9, 16, 17, 32, 33, 64, 65, 128, 129, 255, 256, 257, 300}

// fuzzBatches builds one array per byte of sizes: a byte below 2·len
// (classEdges) picks an edge size, any other byte is the size itself. The
// keys come from seed, drawn from a small range so that arrays hold
// duplicates.
func fuzzBatches(sizes []byte, seed int64) *Batches {
	rng := rand.New(rand.NewSource(seed))
	b := &Batches{Bounds: []int32{0}}
	for _, c := range sizes {
		size := int(c)
		if size < 2*len(classEdges) {
			size = classEdges[size/2]
		}
		for range size {
			b.Data = append(b.Data, uint32(rng.Intn(1<<10)))
		}
		b.Bounds = append(b.Bounds, int32(len(b.Data)))
	}
	return b
}

// FuzzMultipassResident holds the device-resident multipass sort — the
// size classes gathered from the words' own buffer and scattered back by
// device kernels, the oversized arrays read back and written back — to the
// host-staged sort it replaced, element for element, with the same
// sorting-network launches and the same elements sorted.
func FuzzMultipassResident(f *testing.F) {
	for i := range classEdges {
		f.Add([]byte{byte(2 * i), byte(2 * i), 40, 200}, int64(i))
	}
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32}, int64(7))
	f.Fuzz(func(t *testing.T, sizes []byte, seed int64) {
		if len(sizes) > 512 {
			sizes = sizes[:512]
		}
		want := fuzzBatches(sizes, seed)
		got := clone(want)
		wantSt := hostStagedMultipass(gpu.NewDevice(gpu.M2050()), want)
		gotSt := MultipassBitonic(gpu.NewDevice(gpu.M2050()), got)
		if !slices.Equal(got.Data, want.Data) {
			t.Fatalf("sizes %v: the device-resident sort differs from the host-staged one", sizes)
		}
		if gotSt.Launches != wantSt.Launches || gotSt.ElementsSorted != wantSt.ElementsSorted {
			t.Fatalf("sizes %v: launches %d, elements %d; the host-staged sort had %d, %d",
				sizes, gotSt.Launches, gotSt.ElementsSorted, wantSt.Launches, wantSt.ElementsSorted)
		}
	})
}
