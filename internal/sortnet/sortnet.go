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

// MaxSize returns the largest sub-array length.
func (b *Batches) MaxSize() int {
	m := 0
	for i := 0; i < b.NumArrays(); i++ {
		if s := b.SizeOf(i); s > m {
			m = s
		}
	}
	return m
}

// Stats describes one batch-sorting operation on the simulated device.
type Stats struct {
	// Launches is the number of kernel launches issued.
	Launches int64
	// SimSeconds is the simulated device time consumed.
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

// MultipassBitonic sorts every sub-array ascending using the paper's
// multipass scheme: arrays are bucketed by size class and each class is
// sorted with the equal-size batch bitonic primitive, so threads within a
// pass do balanced work.
func MultipassBitonic(d *gpu.Device, b *Batches) Stats {
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
		sortClass(d, b, lo, class, class, &st)
	}
	sortOversized(b)
	st.SimSeconds = d.Stats().Sub(start).SimSeconds
	return st
}

// SinglePassBitonic sorts every sub-array using one batch size: the
// largest array length rounded up to a power of two. Small arrays are
// padded all the way up, the wasted work the multipass scheme eliminates
// (Figure 7(b) measures bitonic SP at ~5x slower).
func SinglePassBitonic(d *gpu.Device, b *Batches) Stats {
	var st Stats
	start := d.Stats()
	max := b.MaxSize()
	if max <= 1 {
		return st
	}
	class := ceilPow2(max)
	if class > maxClassSize {
		class = maxClassSize
	}
	sortClass(d, b, 2, class, class, &st)
	sortOversized(b)
	st.SimSeconds = d.Stats().Sub(start).SimSeconds
	return st
}

// NonEqBitonic sorts arrays of different sizes directly in one launch:
// each block handles one array padded to its own power of two. Workloads
// are imbalanced across blocks (the bitonic noneq baseline of Figure
// 7(b)).
func NonEqBitonic(d *gpu.Device, b *Batches) Stats {
	var st Stats
	start := d.Stats()
	n := 0
	for i := 0; i < b.NumArrays(); i++ {
		if s := b.SizeOf(i); s > 1 && s <= maxClassSize {
			n++
		}
	}
	if n == 0 {
		sortOversized(b)
		return st
	}

	// One launch; every block sorts one array padded to its own power of
	// two inside a fixed 256-slot shared buffer. Threads beyond the
	// array's padded size idle through the barriers — the imbalance.
	// Membership is recomputed per pass rather than materialised, so the
	// window loop stays allocation-free.
	bounds := gpu.Alloc[uint32](d, 2*n)
	defer bounds.Free()
	hostBounds := bounds.Host()
	var maxPadTotal int64
	k := 0
	for i := 0; i < b.NumArrays(); i++ {
		s := b.SizeOf(i)
		if s <= 1 || s > maxClassSize {
			continue
		}
		hostBounds[2*k] = uint32(b.Bounds[i])
		hostBounds[2*k+1] = uint32(s)
		maxPadTotal += int64(ceilPow2(s))
		k++
	}
	data := gpu.Alloc[uint32](d, len(b.Data))
	defer data.Free()
	data.CopyIn(b.Data)

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
			t.SetSharedU32(maxClassSize, gpu.Ld(t, bounds, 2*t.Block))
			t.SetSharedU32(maxClassSize+1, gpu.Ld(t, bounds, 2*t.Block+1))
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
	data.CopyOut(b.Data)
	sortOversized(b)
	st.SimSeconds = d.Stats().Sub(start).SimSeconds
	return st
}

// sortClass pads every array whose size falls in [lo, hi] to class size,
// sorts the batch with the equal-size bitonic kernel and writes the
// results back. Membership is recomputed per pass instead of materialising
// a member list, keeping the window loop allocation-free.
func sortClass(d *gpu.Device, b *Batches, lo, hi, class int, st *Stats) {
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

// sortOversized host-sorts the rare arrays larger than maxClassSize.
func sortOversized(b *Batches) {
	for i := 0; i < b.NumArrays(); i++ {
		if b.SizeOf(i) > maxClassSize {
			quicksort(b.Array(i))
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
	// Insertion sort for the remainder.
	for i := 1; i < len(a); i++ {
		for k := i; k > 0 && a[k-1] > a[k]; k-- {
			a[k-1], a[k] = a[k], a[k-1]
		}
	}
}
