package gpu

import (
	"math/bits"
	"slices"
)

// This file provides the classic data-parallel primitives GSNP's
// GPU compression path is built from (Section V-B of the paper): reduction,
// exclusive prefix scan, device-wide bitonic sort, unique, presence-table
// distinct, and batched binary search. They are written as kernels against
// the simulator so their memory behaviour is metered like any other device
// code.

// primBlock is the thread-block size used by the primitive kernels, and
// primLog its base-2 logarithm (the number of stride rounds in the
// tree-shaped reduce and scan kernels).
const primBlock = 256

var primLog = bits.Len(uint(primBlock)) - 1

// ReduceU32 sums the device buffer with a shared-memory tree reduction per
// block followed by a host combine of the per-block partials, the standard
// two-level GPU reduction.
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

// ReduceMaxU32 returns the largest element of the device buffer (0 for an
// empty one): the same two-level reduction as ReduceU32 under max.
func ReduceMaxU32(d *Device, in *Buffer[uint32]) uint32 {
	if in.Len() == 0 {
		return 0
	}
	partial := blockReduceU32(d, in, "reduce_max_u32", func(a, b uint32) uint32 { return max(a, b) })
	defer partial.Free()
	return slices.Max(partial.Host())
}

// reduceLoads is the number of elements a lane of the reduce kernels folds
// in registers, at block stride so the loads coalesce, before the tree in
// shared memory starts: a lane that only loads one element spends the
// primLog strides after it mostly idle.
const reduceLoads = 8

// blockReduceU32 folds every block's slice of in with op, which must be
// associative and commutative with identity 0, and returns the per-block
// partials (caller frees). The barrier structure is static (load, primLog
// halving strides, store), so it runs as a phased launch: identical
// metering to the synchronous form, no per-thread goroutines.
func blockReduceU32(d *Device, in *Buffer[uint32], name string, op func(a, b uint32) uint32) *Buffer[uint32] {
	n := in.Len()
	const tile = primBlock * reduceLoads
	grid := (n + tile - 1) / tile
	partial := Alloc[uint32](d, grid)
	d.MustLaunchPhased(LaunchConfig{Name: name, Grid: grid, Block: primBlock, SharedU32: primBlock}, primLog+2, func(t *Thread, p int) bool {
		switch {
		case p == 0:
			v := uint32(0)
			end := min(n, (t.Block+1)*tile)
			for i := t.Block*tile + t.Lane; i < end; i += primBlock {
				t.Exec(1)
				v = op(v, Ld(t, in, i))
			}
			t.SetSharedU32(t.Lane, v)
			return true
		case p <= primLog:
			stride := primBlock >> p
			if t.Lane < stride {
				t.Exec(1)
				t.SetSharedU32(t.Lane, op(t.SharedU32(t.Lane), t.SharedU32(t.Lane+stride)))
			}
			return true
		default:
			if t.Lane == 0 {
				St(t, partial, t.Block, t.SharedU32(0))
			}
			return false
		}
	})
	return partial
}

// ExclusiveScanU32 computes the exclusive prefix sum of in into out
// (out[0]=0, out[i]=sum(in[0..i-1])) and returns the grand total. It uses a
// per-block Hillis-Steele scan in shared memory plus a host pass that
// offsets each block by the preceding blocks' totals — the standard
// scan-then-propagate scheme.
func ExclusiveScanU32(d *Device, in, out *Buffer[uint32]) uint64 {
	n := in.Len()
	if out.Len() < n {
		panic("gpu: ExclusiveScanU32: output shorter than input")
	}
	if n == 0 {
		return 0
	}
	grid := (n + primBlock - 1) / primBlock
	blockTotals := Alloc[uint32](d, grid)
	defer blockTotals.Free()

	// Double-buffered inclusive Hillis-Steele scan, phased: one load
	// round, primLog doubling strides, one store round. Each lane carries
	// its own input value across the barriers in a register (Reg[0]) so
	// the exclusive result costs no extra shared-memory traffic.
	d.MustLaunchPhased(LaunchConfig{Name: "scan_u32", Grid: grid, Block: primBlock, SharedU32: 2 * primBlock}, primLog+2, func(t *Thread, p int) bool {
		switch {
		case p == 0:
			i := t.GlobalID()
			v := uint32(0)
			if i < n {
				v = Ld(t, in, i)
			}
			t.Reg[0] = uint64(v)
			t.SetSharedU32(t.Lane, v)
			return true
		case p <= primLog:
			stride := 1 << (p - 1)
			cur := ((p - 1) & 1) * primBlock
			nxt := primBlock - cur
			x := t.SharedU32(cur + t.Lane)
			if t.Lane >= stride {
				t.Exec(1)
				x += t.SharedU32(cur + t.Lane - stride)
			}
			t.SetSharedU32(nxt+t.Lane, x)
			return true
		default:
			// After primLog buffer swaps from offset 0 the inclusive
			// values sit at offset 0 iff primLog is even.
			incl := t.SharedU32((primLog&1)*primBlock + t.Lane)
			i := t.GlobalID()
			if i < n {
				St(t, out, i, incl-uint32(t.Reg[0])) // exclusive = inclusive - self
			}
			if t.Lane == primBlock-1 {
				St(t, blockTotals, t.Block, incl)
			}
			return false
		}
	})

	// Host carry propagation across blocks (cheap: one value per block).
	// The carries are staged directly in the device buffer's backing
	// storage; the self-CopyIn meters the upload without a second host
	// array.
	carryBuf := Alloc[uint32](d, grid)
	defer carryBuf.Free()
	totals := blockTotals.Host()
	carries := carryBuf.Host()
	var carry uint64
	for b := 0; b < grid; b++ {
		carries[b] = uint32(carry)
		carry += uint64(totals[b])
	}
	carryBuf.CopyIn(carries)
	d.MustLaunch(LaunchConfig{Name: "scan_carry", Grid: grid, Block: primBlock}, func(t *Thread) {
		i := t.GlobalID()
		if i >= n {
			return
		}
		c := Ld(t, carryBuf, t.Block)
		t.Exec(1)
		St(t, out, i, Ld(t, out, i)+c)
	})
	return carry
}

// SortU32 sorts the device buffer in place with a device-wide iterative
// bitonic sorting network. Lengths that are not powers of two are handled
// by padding with the maximum key. The network performs log^2(n) global
// passes; each pass is one kernel launch, as on real hardware.
func SortU32(d *Device, buf *Buffer[uint32]) {
	n := buf.Len()
	if n <= 1 {
		return
	}
	pow := 1 << bits.Len(uint(n-1)) // next power of two >= n
	var work *Buffer[uint32]
	if pow != n {
		work = Alloc[uint32](d, pow)
		defer work.Free()
		host := work.Host()
		copy(host, buf.Host())
		for i := n; i < pow; i++ {
			host[i] = ^uint32(0)
		}
	} else {
		work = buf
	}

	grid := (pow/2 + primBlock - 1) / primBlock
	for k := 2; k <= pow; k *= 2 {
		for j := k / 2; j > 0; j /= 2 {
			kk, jj := k, j
			d.MustLaunch(LaunchConfig{Name: "bitonic_global", Grid: grid, Block: primBlock}, func(t *Thread) {
				id := t.GlobalID()
				if id >= pow/2 {
					return
				}
				// Map compare-exchange id to element index i with partner
				// i^jj, processing each pair once.
				i := 2*id - (id & (jj - 1))
				t.Exec(4)
				l := i ^ jj
				a, b := Ld(t, work, i), Ld(t, work, l)
				up := i&kk == 0
				t.Exec(1)
				if (a > b) == up {
					St(t, work, i, b)
					St(t, work, l, a)
				}
			})
		}
	}
	if work != buf {
		copy(buf.Host(), work.Host()[:n])
	}
}

// UniqueU32 compacts consecutive duplicates out of a sorted device buffer:
// it flags run heads, scans the flags for destinations and scatters. It
// returns a new buffer holding the distinct values (caller frees).
func UniqueU32(d *Device, in *Buffer[uint32]) *Buffer[uint32] {
	n := in.Len()
	if n == 0 {
		return Alloc[uint32](d, 0)
	}
	flags := Alloc[uint32](d, n)
	defer flags.Free()
	d.MustLaunch(LaunchConfig{Name: "unique_flag", Grid: (n + primBlock - 1) / primBlock, Block: primBlock}, func(t *Thread) {
		i := t.GlobalID()
		if i >= n {
			return
		}
		f := uint32(1)
		if i > 0 {
			t.Exec(1)
			if Ld(t, in, i-1) == Ld(t, in, i) {
				f = 0
			}
		}
		St(t, flags, i, f)
	})
	dst := Alloc[uint32](d, n)
	defer dst.Free()
	total := ExclusiveScanU32(d, flags, dst)
	out := Alloc[uint32](d, int(total))
	d.MustLaunch(LaunchConfig{Name: "unique_scatter", Grid: (n + primBlock - 1) / primBlock, Block: primBlock}, func(t *Thread) {
		i := t.GlobalID()
		if i >= n {
			return
		}
		if Ld(t, flags, i) == 1 {
			St(t, out, int(Ld(t, dst, i)), Ld(t, in, i))
		}
	})
	return out
}

// DistinctU32 returns the distinct values of in, ascending, in a new buffer
// (caller frees), for a column whose values are all below limit. Where
// SortU32 + UniqueU32 order the keys to find the distinct ones, this marks
// each value in a limit-sized presence table, scans the table for
// destinations and emits the marked slots: O(n + limit) work in four
// launches whatever n is, and sorted by construction. Many lanes mark the
// same slot, so the mark is an atomic exchange.
func DistinctU32(d *Device, in *Buffer[uint32], limit int) *Buffer[uint32] {
	n := in.Len()
	if n == 0 {
		return Alloc[uint32](d, 0)
	}
	present := Alloc[uint32](d, limit)
	defer present.Free()
	d.MustLaunch(LaunchConfig{Name: "dict_mark", Grid: (n + primBlock - 1) / primBlock, Block: primBlock}, func(t *Thread) {
		if i := t.GlobalID(); i < n {
			AtomicExchU32(t, present, int(Ld(t, in, i)), 1)
		}
	})
	dst := Alloc[uint32](d, limit)
	defer dst.Free()
	total := ExclusiveScanU32(d, present, dst)
	out := Alloc[uint32](d, int(total))
	d.MustLaunch(LaunchConfig{Name: "dict_compact", Grid: (limit + primBlock - 1) / primBlock, Block: primBlock}, func(t *Thread) {
		if v := t.GlobalID(); v < limit && Ld(t, present, v) == 1 {
			St(t, out, int(Ld(t, dst, v)), uint32(v))
		}
	})
	return out
}

// BatchBinarySearchU32 looks every key up in the sorted dictionary with one
// thread per key and writes the found index (keys are guaranteed present in
// GSNP's DICT encoder, which built the dictionary from the same data). The
// dictionary is read from constant memory when it fits — the paper loads
// the DICT dictionary into constant memory — and from global memory
// otherwise.
func BatchBinarySearchU32(d *Device, keys *Buffer[uint32], dict []uint32, out *Buffer[uint32]) {
	n := keys.Len()
	if out.Len() < n {
		panic("gpu: BatchBinarySearchU32: output shorter than keys")
	}
	if n == 0 {
		return
	}
	grid := (n + primBlock - 1) / primBlock

	cb, err := newConst(d, dict, true)
	if err == nil {
		defer cb.Free()
		d.MustLaunch(LaunchConfig{Name: "dict_search_const", Grid: grid, Block: primBlock}, func(t *Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			key := Ld(t, keys, i)
			lo, hi := 0, cb.Len()
			for lo < hi {
				t.Exec(3)
				mid := (lo + hi) / 2
				if CLd(t, cb, mid) < key {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			St(t, out, i, uint32(lo))
		})
		return
	}

	gdict := Alloc[uint32](d, len(dict))
	defer gdict.Free()
	gdict.CopyIn(dict)
	d.MustLaunch(LaunchConfig{Name: "dict_search_global", Grid: grid, Block: primBlock}, func(t *Thread) {
		i := t.GlobalID()
		if i >= n {
			return
		}
		key := Ld(t, keys, i)
		lo, hi := 0, len(dict)
		for lo < hi {
			t.Exec(3)
			mid := (lo + hi) / 2
			if Ld(t, gdict, mid) < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		St(t, out, i, uint32(lo))
	})
}
