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
	// phase per (k, j) network step. Blocks with a smaller pad run a
	// prefix of the full maxClassSize network (k ascends, j descends
	// within k), write back and retire early, exactly as their goroutines
	// used to leave the barrier early.
	merges := nkjPhases(maxClassSize)
	d.MustLaunchPhased(gpu.LaunchConfig{
		Name: "bitonic_noneq", Grid: n, Block: maxClassSize,
		SharedU32: maxClassSize + 2,
	}, merges+3, func(lanes []gpu.Thread, p int) {
		switch {
		case p == 0:
			// Lane 0 stages the block's array descriptor through shared
			// memory; a naive per-lane load would multiply global traffic.
			t := &lanes[0]
			t.SetSharedU32(maxClassSize, gpu.Ld(t, bounds, 2*t.Block))
			t.SetSharedU32(maxClassSize+1, gpu.Ld(t, bounds, 2*t.Block+1))
		case p == 1:
			for l := range lanes {
				t := &lanes[l]
				off := t.SharedU32(maxClassSize)
				size := t.SharedU32(maxClassSize + 1)
				t.Reg[0] = uint64(off)
				t.Reg[1] = uint64(size)
				if l >= ceilPow2(int(size)) {
					// Lanes beyond this array's padded size retire; the
					// block still occupies a full 256-thread slot, the
					// imbalance this baseline suffers from.
					t.Retire()
					continue
				}
				v := padValue
				if l < int(size) {
					v = gpu.Ld(t, data, int(off)+l)
				}
				t.SetSharedU32(l, v)
			}
		default:
			// Every live lane holds the same descriptor; they are the
			// first pad lanes.
			off := int(lanes[0].Reg[0])
			size := int(lanes[0].Reg[1])
			pad := ceilPow2(size)
			live := lanes[:pad]
			if p-2 < nkjPhases(pad) {
				kk, jj := kjAt(p - 2)
				gpu.CompareExchangeU32(live, kk, jj, pad)
				return
			}
			for l := range live {
				t := &live[l]
				if l < size {
					gpu.St(t, data, off+l, t.SharedU32(l))
				}
				t.Retire()
			}
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
	merges := nkjPhases(class)
	d.MustLaunchPhased(gpu.LaunchConfig{
		Name: "batch_bitonic", Grid: grid, Block: block,
		SharedU32: block,
	}, merges+2, func(lanes []gpu.Thread, p int) {
		switch {
		case p == 0:
			for l := range lanes {
				t := &lanes[l]
				i := t.GlobalID()
				v := padValue
				if i < total {
					v = gpu.Ld(t, batch, i)
				}
				t.SetSharedU32(l, v)
			}
		case p <= merges:
			kk, jj := kjAt(p - 1)
			gpu.CompareExchangeU32(lanes, kk, jj, class)
		default:
			for l := range lanes {
				t := &lanes[l]
				if i := t.GlobalID(); i < total {
					gpu.St(t, batch, i, t.SharedU32(l))
				}
				t.Retire()
			}
		}
	})
	return 1
}

// nkjPhases is the number of (k, j) compare-exchange steps of a bitonic
// network over size elements: log2(size) * (log2(size)+1) / 2.
func nkjPhases(size int) int {
	l := bits.Len(uint(size)) - 1
	return l * (l + 1) / 2
}

// kjSteps lists the (k, j) pairs of the maxClassSize network in step order
// — k ascends 2, 4, ... and within each k the stride j halves from k/2 down
// to 1 — so the step sequence of a smaller power of two is a prefix of it,
// which is what lets non-equal-size blocks share one phase counter. The
// phased kernels look a step up once per block and phase.
var kjSteps = func() (s [][2]int) {
	for k := 2; k <= maxClassSize; k *= 2 {
		for j := k / 2; j > 0; j /= 2 {
			s = append(s, [2]int{k, j})
		}
	}
	return s
}()

// kjAt returns the (k, j) pair of flat step q.
func kjAt(q int) (k, j int) { return kjSteps[q][0], kjSteps[q][1] }

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
