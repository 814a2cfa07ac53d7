// Package sortnet implements the sorting machinery of GSNP's
// likelihood_sort step and the sorting study of the paper's Section IV-C /
// Figure 7: a batch bitonic sort primitive for many equal-sized small
// arrays on the GPU, the multipass scheme that buckets variable-sized
// arrays into size classes, the single-pass and non-equal-size baselines, a
// parallel CPU quicksort, and a per-array GPU radix sort (the
// sorts-arrays-sequentially baseline).
package sortnet

import (
	"math/bits"
	"runtime"

	"gsnp/internal/gpu"
	"gsnp/internal/par"
)

// Batches is a collection of independent small arrays stored back to back:
// array i occupies Data[Bounds[i]:Bounds[i+1]]. It is the layout of the
// per-site base_word arrays of a window.
type Batches struct {
	Data   []uint32
	Bounds []int32
}

// NumArrays returns the number of sub-arrays.
func (b *Batches) NumArrays() int { return len(b.Bounds) - 1 }

// SizeOf returns the length of sub-array i.
func (b *Batches) SizeOf(i int) int { return int(b.Bounds[i+1] - b.Bounds[i]) }

// Array returns sub-array i.
func (b *Batches) Array(i int) []uint32 { return b.Data[b.Bounds[i]:b.Bounds[i+1]] }

// Reset prepares b to hold nArrays sub-arrays over nData total elements,
// reusing the backing storage when capacity allows (grow-only): callers
// that recycle a Batches across windows pay no steady-state allocations.
// Contents are unspecified; the caller fills Bounds and Data.
func (b *Batches) Reset(nArrays, nData int) {
	if cap(b.Bounds) < nArrays+1 {
		b.Bounds = make([]int32, nArrays+1)
	} else {
		b.Bounds = b.Bounds[:nArrays+1]
	}
	if cap(b.Data) < nData {
		b.Data = make([]uint32, nData)
	} else {
		b.Data = b.Data[:nData]
	}
}

// Resident is a Batches on the simulated device: array i occupies elements
// [Bounds[i], Bounds[i+1]) of Words, and the host holds the bounds. It is
// the layout of a GPU window's base_words from counting on, and what the
// GPU sorts take.
type Resident struct {
	Words  *gpu.Buffer[uint32]
	Bounds []uint32
}

// NumArrays returns the number of sub-arrays.
func (r Resident) NumArrays() int { return len(r.Bounds) - 1 }

// SizeOf returns the length of sub-array i.
func (r Resident) SizeOf(i int) int { return int(r.Bounds[i+1] - r.Bounds[i]) }

// Upload copies b's arrays into a new device buffer, a charged transfer,
// and returns them resident; the caller frees r.Words (Download does).
func (b *Batches) Upload(d *gpu.Device) Resident {
	r := Resident{Words: gpu.Alloc[uint32](d, len(b.Data)), Bounds: make([]uint32, len(b.Bounds))}
	r.Words.CopyIn(b.Data)
	for i, x := range b.Bounds {
		r.Bounds[i] = uint32(x)
	}
	return r
}

// Download copies r's arrays back into b, the Batches they were uploaded
// from, a charged transfer, and frees them.
func (r Resident) Download(b *Batches) {
	r.Words.CopyOut(b.Data)
	r.Words.Free()
}

// Stats describes one batch-sorting operation on the simulated device.
type Stats struct {
	// Launches is the number of sorting-network launches issued; the
	// gathers and scatters that stage a size class are not counted.
	Launches int64
	// SimSeconds is the simulated device time consumed, the staging
	// included.
	SimSeconds float64
	// ElementsSorted counts elements pushed through sorting networks,
	// including padding (the single-pass waste of Figure 7(b) shows up
	// here).
	ElementsSorted int64
}

// padValue fills batch slots beyond an array's real length; it sorts last.
const padValue = ^uint32(0)

// maxClassSize is the largest batch array size the shared-memory kernel
// handles; longer arrays (rare at realistic sequencing depths) are sorted
// on the host.
const maxClassSize = 256

// multipassClasses are the size-class upper bounds of the paper's
// six-pass scheme: [0,1], (1,8], (8,16], (16,32], (32,64], >64.
var multipassClasses = []int{1, 8, 16, 32, 64, maxClassSize}

// MultipassBitonic sorts host batches with Resident.MultipassBitonic,
// staging them through the device: uploaded, sorted, read back. The
// returned Stats cover the sort alone.
func MultipassBitonic(d *gpu.Device, b *Batches) Stats {
	r := b.Upload(d)
	defer r.Download(b)
	return r.MultipassBitonic(d)
}

// MultipassBitonic sorts every sub-array ascending in place using the
// paper's multipass scheme: arrays are bucketed by size class and each
// class is sorted with the equal-size batch bitonic primitive, so threads
// within a pass do balanced work.
func (r Resident) MultipassBitonic(d *gpu.Device) Stats {
	var st Stats
	start := d.Stats()
	for ci, class := range multipassClasses {
		if class == 1 {
			continue // single-element arrays are already sorted
		}
		lo := 1
		if ci > 0 {
			lo = multipassClasses[ci-1] + 1
		}
		sortClass(d, r, lo, class, class, &st)
	}
	sortOversized(r)
	st.SimSeconds = d.Stats().Sub(start).SimSeconds
	return st
}

// SinglePassBitonic sorts every sub-array in place using one batch size:
// the largest array length rounded up to a power of two. Small arrays are
// padded all the way up, the wasted work the multipass scheme eliminates
// (Figure 7(b) measures bitonic SP at ~5x slower).
func (r Resident) SinglePassBitonic(d *gpu.Device) Stats {
	var st Stats
	start := d.Stats()
	largest := 0
	for i := range r.NumArrays() {
		largest = max(largest, r.SizeOf(i))
	}
	if largest <= 1 {
		return st
	}
	class := min(ceilPow2(largest), maxClassSize)
	sortClass(d, r, 2, class, class, &st)
	sortOversized(r)
	st.SimSeconds = d.Stats().Sub(start).SimSeconds
	return st
}

// NonEqBitonic sorts arrays of different sizes in place in one launch:
// each block handles one array padded to its own power of two. Workloads
// are imbalanced across blocks (the bitonic noneq baseline of Figure
// 7(b)).
func (r Resident) NonEqBitonic(d *gpu.Device) Stats {
	var st Stats
	start := d.Stats()
	desc := r.descriptors(d, 2, maxClassSize)
	if desc == nil {
		sortOversized(r)
		return st
	}
	defer desc.Free()

	// One launch; every block sorts one array padded to its own power of
	// two inside a fixed 256-slot shared buffer. Threads beyond the
	// array's padded size idle through the barriers — the imbalance.
	n := desc.Len() / 2
	var maxPadTotal int64
	for k := 1; k < 2*n; k += 2 {
		maxPadTotal += int64(ceilPow2(int(desc.Host()[k])))
	}
	data := r.Words

	// Phase 0 stages the descriptor, phase 1 loads the array, then one
	// phase per step of its pad's network — one BitonicNetworkU32 call
	// from phase 2 — and the phase after them writes it back. Blocks with
	// a smaller pad run fewer steps than the maxClassSize network the
	// launch is sized for and retire early; lanes past the pad retire at
	// the load, the imbalance this baseline suffers from: the block still
	// occupies a full 256-thread slot.
	d.MustLaunchPhased(gpu.LaunchConfig{
		Name: "bitonic_noneq", Grid: n, Block: maxClassSize,
		SharedU32: maxClassSize + 2,
	}, gpu.NetworkSteps(maxClassSize)+3, func(b *gpu.Block, p int) {
		switch p {
		case 0:
			// Lane 0 stages the block's array descriptor through shared
			// memory; a naive per-lane load would multiply global traffic.
			t := b.Lane(0)
			t.SetSharedU32(maxClassSize, gpu.Ld(t, desc, 2*t.Block))
			t.SetSharedU32(maxClassSize+1, gpu.Ld(t, desc, 2*t.Block+1))
		case 1:
			// Lane l: off, size := t.SharedU32(256), t.SharedU32(257); past
			// the pad it retires, below it loads element l (padding past
			// size) into shared memory. Lane 0 keeps the descriptor in its
			// registers for the later phases.
			off := int(b.SharedU32Bcast(0, maxClassSize, maxClassSize))
			size := int(b.SharedU32Bcast(0, maxClassSize, maxClassSize+1))
			pad := ceilPow2(size)
			b.Lane(0).Reg = [2]uint64{uint64(off), uint64(size)}
			b.Retire(pad, maxClassSize-pad)
			b.SetSharedU32Wide(0, 0, gpu.LdWide(b, data, 0, off, size))
			b.SetSharedU32Wide(size, size, padRow[:pad-size])
		case 2:
			pad := ceilPow2(int(b.Lane(0).Reg[1]))
			gpu.BitonicNetworkU32(b, pad, pad)
		default:
			// Lane l below the pad: if l < size { St(data, off+l,
			// t.SharedU32(l)) }; then it retires.
			reg := b.Lane(0).Reg
			off, size := int(reg[0]), int(reg[1])
			gpu.StWide(b, data, 0, off, b.SharedU32Wide(0, 0, size))
			b.Retire(0, ceilPow2(size))
		}
	})
	st.Launches++
	st.ElementsSorted += maxPadTotal
	sortOversized(r)
	st.SimSeconds = d.Stats().Sub(start).SimSeconds
	return st
}

// sortClass sorts, in place, every array whose size falls in [lo, hi]:
// batch_gather copies the members into a batch of class-size slots,
// padding each past its length, the equal-size bitonic kernel sorts the
// batch, and batch_scatter copies each member's slots back.
func sortClass(d *gpu.Device, r Resident, lo, hi, class int, st *Stats) {
	members := r.descriptors(d, lo, hi)
	if members == nil {
		return
	}
	defer members.Free()
	n, class := members.Len()/2, ceilPow2(class)
	batch := gpu.Alloc[uint32](d, n*class)
	defer batch.Free()
	stageClass(d, "batch_gather", r.Words, batch, members, class)
	st.Launches += int64(batchBitonicEqual(d, batch, class))
	st.ElementsSorted += int64(n * class)
	stageClass(d, "batch_scatter", r.Words, batch, members, class)
}

// descriptors lists the offset and size of every array whose size is in
// [lo, hi], in array order, built from the host's bounds in the storage
// of a device buffer and uploaded as one transfer. The caller frees it;
// it is nil when no array qualifies.
func (r Resident) descriptors(d *gpu.Device, lo, hi int) *gpu.Buffer[uint32] {
	n := 0
	for i := range r.NumArrays() {
		if s := r.SizeOf(i); s >= lo && s <= hi {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	desc := gpu.Alloc[uint32](d, 2*n)
	h := desc.Host()
	k := 0
	for i := range r.NumArrays() {
		if s := r.SizeOf(i); s >= lo && s <= hi {
			h[k], h[k+1] = r.Bounds[i], uint32(s)
			k += 2
		}
	}
	desc.CopyIn(h)
	return desc
}

// stageClass launches batch_gather or batch_scatter over the batch of a
// size class, one lane per slot. A block's slots are whole members (class
// divides maxClassSize), and the lanes of a member share its descriptor:
//
//	lane l, slot i, member k := i/class, j := i%class:
//	off, size := Ld(members, 2k), Ld(members, 2k+1)
//	gather:  v := padValue; if j < size { v = Ld(words, off+j) }; St(batch, i, v)
//	scatter: if j < size { St(words, off+j, Ld(batch, i)) }
func stageClass(d *gpu.Device, name string, words, batch, members *gpu.Buffer[uint32], class int) {
	total := batch.Len()
	gather := name == "batch_gather"
	d.MustLaunchWide(gpu.LaunchConfig{
		Name: name, Grid: (total + maxClassSize - 1) / maxClassSize, Block: maxClassSize,
	}, func(b *gpu.Block) {
		i0 := b.Index * maxClassSize
		m := min(maxClassSize, total-i0)
		var row [maxClassSize]uint32
		for l0 := 0; l0 < m; l0 += class {
			k := (i0 + l0) / class
			off := int(gpu.LdBcast(b, members, l0, class, 2*k))
			size := int(gpu.LdBcast(b, members, l0, class, 2*k+1))
			if gather {
				copy(row[l0:], gpu.LdWide(b, words, l0, off, size))
				copy(row[l0+size:l0+class], padRow[:class-size])
			} else {
				gpu.StWide(b, words, l0, off, gpu.LdWide(b, batch, l0, i0+l0, size))
			}
		}
		if gather {
			gpu.StWide(b, batch, 0, i0, row[:m])
		}
	})
}

// batchBitonicEqual sorts contiguous equal-sized arrays (class must be a
// power of two <= 256) in shared memory, multiple arrays per 256-thread
// block. It returns the number of kernel launches (always 1).
func batchBitonicEqual(d *gpu.Device, batch *gpu.Buffer[uint32], class int) int {
	total := batch.Len()
	block := maxClassSize
	if total < block {
		block = ceilPow2(total)
		if block < 32 {
			block = 32
		}
	}
	grid := (total + block - 1) / block
	// Phase 0 loads the block's slice (padding past the batch), then one
	// phase per network step over every class-size segment — one
	// BitonicNetworkU32 call from phase 1 — and the last phase writes the
	// slice back.
	d.MustLaunchPhased(gpu.LaunchConfig{
		Name: "batch_bitonic", Grid: grid, Block: block,
		SharedU32: block,
	}, gpu.NetworkSteps(class)+2, func(b *gpu.Block, p int) {
		i0 := b.Index * block
		m := min(block, total-i0)
		switch p {
		case 0:
			// Lane l: v := padValue; if i < total { v = Ld(batch, i) };
			// t.SetSharedU32(l, v).
			b.SetSharedU32Wide(0, 0, gpu.LdWide(b, batch, 0, i0, m))
			b.SetSharedU32Wide(m, m, padRow[:block-m])
		case 1:
			gpu.BitonicNetworkU32(b, block, class)
		default:
			// Lane l: if i < total { St(batch, i, t.SharedU32(l)) }; then
			// it retires.
			gpu.StWide(b, batch, 0, i0, b.SharedU32Wide(0, 0, m))
			b.Retire(0, block)
		}
	})
	return 1
}

// padRow is a shared-memory row of padding.
var padRow = func() (r [maxClassSize]uint32) {
	for i := range r {
		r[i] = padValue
	}
	return r
}()

// sortOversized sorts the rare arrays larger than maxClassSize on the host:
// each is read back, sorted and written back, charged transfers of its
// words in place.
func sortOversized(r Resident) {
	for i := range r.NumArrays() {
		if r.SizeOf(i) > maxClassSize {
			a := r.Words.Host()[r.Bounds[i]:r.Bounds[i+1]]
			r.Words.CopyOut(a)
			quicksort(a)
			r.Words.CopyIn(a)
		}
	}
}

// ceilPow2 rounds up to a power of two (minimum 2).
func ceilPow2(n int) int {
	if n <= 2 {
		return 2
	}
	return 1 << bits.Len(uint(n-1))
}

// ParallelQuicksort sorts every sub-array on the host, a contiguous range of
// arrays per worker — the OpenMP-style parallel CPU sort of Figure 7(a).
// workers <= 0 selects GOMAXPROCS. A panic on any worker (a Batches whose
// Bounds do not fit its Data) reaches the caller as a *par.PanicError.
func ParallelQuicksort(b *Batches, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := b.NumArrays()
	if workers == 1 {
		// Inline fast path: no fork-join, so the single-threaded
		// configuration sorts allocation-free.
		for i := 0; i < n; i++ {
			quicksort(b.Array(i))
		}
		return
	}
	par.Range(n, workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			quicksort(b.Array(i))
		}
	})
}

// quicksort sorts a small uint32 slice in place: insertion sort below 16
// elements, median-of-three quicksort above.
func quicksort(a []uint32) {
	for len(a) > 16 {
		// Median-of-three pivot.
		m := len(a) / 2
		hi := len(a) - 1
		if a[0] > a[m] {
			a[0], a[m] = a[m], a[0]
		}
		if a[m] > a[hi] {
			a[m], a[hi] = a[hi], a[m]
			if a[0] > a[m] {
				a[0], a[m] = a[m], a[0]
			}
		}
		pivot := a[m]
		i, j := 0, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		// Recurse into the smaller half, loop on the larger.
		if j < len(a)-i {
			quicksort(a[:j+1])
			a = a[i:]
		} else {
			quicksort(a[i:])
			a = a[:j+1]
		}
	}
	// Insertion sort for the remainder: each element is held while the
	// larger ones before it shift up a place, one store a step.
	for i := 1; i < len(a); i++ {
		v, k := a[i], i
		for ; k > 0 && a[k-1] > v; k-- {
			a[k] = a[k-1]
		}
		a[k] = v
	}
}
