package gpu

import (
	"math/bits"
	"slices"
	"sync"
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

// zeroU32 is a block of zero words, the scan's padding.
var zeroU32 [primBlock]uint32

// ReduceMaxU32 returns the largest element of the device buffer (0 for an
// empty one): a shared-memory tree per block, then a host combine of the
// per-block partials, the standard two-level GPU reduction.
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
	d.MustLaunchPhased(LaunchConfig{Name: name, Grid: grid, Block: primBlock, SharedU32: primBlock}, primLog+2, func(lanes []Thread, p int) {
		switch {
		case p == 0:
			end := min(n, (lanes[0].Block+1)*tile)
			for l := range lanes {
				t := &lanes[l]
				v := uint32(0)
				for i := t.Block*tile + l; i < end; i += primBlock {
					t.Exec(1)
					v = op(v, Ld(t, in, i))
				}
				t.SetSharedU32(l, v)
			}
		case p <= primLog:
			// Lane l < stride: Exec(1), two shared loads and a store,
			// charged to its instr once and to the block's shared sums.
			stride := primBlock >> p
			b := lanes[0].Wide()
			sh := b.rt.sharedU32
			for l := range stride {
				sh[l] = op(sh[l], sh[l+stride])
			}
			b.Exec(0, stride, 4)
			b.sld += 2 * int64(stride)
			b.sst += int64(stride)
		default:
			t := &lanes[0]
			St(t, partial, t.Block, t.SharedU32(0))
			for l := range lanes {
				lanes[l].Retire()
			}
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
	// round, primLog doubling strides, one store round. Lane l keeps its
	// input in a register, so the exclusive result, inclusive − self,
	// costs no extra shared-memory traffic; that difference is the
	// inclusive value of lane l−1, which the store phase reads instead.
	d.MustLaunchPhased(LaunchConfig{Name: "scan_u32", Grid: grid, Block: primBlock, SharedU32: 2 * primBlock}, primLog+2, func(lanes []Thread, p int) {
		b := lanes[0].Wide()
		i0 := b.Index * primBlock
		m := min(primBlock, n-i0)
		switch {
		case p == 0:
			// Lane l: v := 0; if i < n { v = Ld(t, in, i) };
			// t.SetSharedU32(l, v).
			b.SetSharedU32Wide(0, 0, LdWide(b, in, 0, i0, m))
			b.SetSharedU32Wide(m, m, zeroU32[:primBlock-m])
		case p <= primLog:
			// Lane l: a shared load, past stride an Exec(1) and a second
			// load, a store; charged to its instr once and the block sums.
			stride := 1 << (p - 1)
			cur := ((p - 1) & 1) * primBlock
			sh := b.rt.sharedU32
			src, dst := sh[cur:][:primBlock], sh[primBlock-cur:][:primBlock]
			copy(dst[:stride], src)
			for l := stride; l < primBlock; l++ {
				dst[l] = src[l] + src[l-stride]
			}
			b.Exec(0, primBlock, 2)
			b.Exec(stride, primBlock-stride, 2)
			b.sld += 2*primBlock - int64(stride)
			b.sst += primBlock
		default:
			// Lane l: incl := t.SharedU32(l) of the buffer the last stride
			// wrote (offset 0 iff primLog is even); if i < n {
			// St(t, out, i, incl − self) }; lane primBlock−1 then stores
			// incl to blockTotals.
			incl := b.SharedU32Wide(0, (primLog&1)*primBlock, primBlock)
			var excl [primBlock]uint32
			copy(excl[1:m], incl)
			StWide(b, out, 0, i0, excl[:m])
			StLane(b, blockTotals, primBlock-1, b.Index, incl[primBlock-1])
			for l := range lanes {
				lanes[l].Retire()
			}
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
	d.MustLaunchWide(LaunchConfig{Name: "scan_carry", Grid: grid, Block: primBlock}, func(b *Block) {
		// Lane l: if i < n { c := Ld(t, carryBuf, block); t.Exec(1);
		// St(t, out, i, Ld(t, out, i)+c) }.
		i0 := b.Index * primBlock
		m := min(primBlock, n-i0)
		c := LdBcast(b, carryBuf, 0, m, b.Index)
		b.Exec(0, m, 1)
		var sum [primBlock]uint32
		for k, x := range LdWide(b, out, 0, i0, m) {
			sum[k] = x + c
		}
		StWide(b, out, 0, i0, sum[:m])
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
	d.MustLaunchWide(LaunchConfig{Name: "dict_mark", Grid: (n + primBlock - 1) / primBlock, Block: primBlock}, func(b *Block) {
		// Lane l: if i < n { AtomicExchU32(t, present, int(Ld(t, in, i)), 1) }.
		i0 := b.Index * primBlock
		for l, v := range LdWide(b, in, 0, i0, min(primBlock, n-i0)) {
			AtomicExchLaneU32(b, present, l, int(v), 1)
		}
	})
	dst := Alloc[uint32](d, limit)
	defer dst.Free()
	total := ExclusiveScanU32(d, present, dst)
	out := Alloc[uint32](d, int(total))
	d.MustLaunchWide(LaunchConfig{Name: "dict_compact", Grid: (limit + primBlock - 1) / primBlock, Block: primBlock}, func(b *Block) {
		// Lane l: if v < limit && Ld(t, present, v) == 1 {
		// St(t, out, int(Ld(t, dst, v)), uint32(v)) }.
		v0 := b.Index * primBlock
		for l, p := range LdWide(b, present, 0, v0, min(primBlock, limit-v0)) {
			if p == 1 {
				StLane(b, out, l, int(LdLane(b, dst, l, v0+l)), uint32(v0+l))
			}
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
		steps := newStepTable(cb.data, n)
		defer steps.free()
		d.MustLaunchWide(LaunchConfig{Name: "dict_search_const", Grid: grid, Block: primBlock}, func(b *Block) {
			// Lane l: key := Ld(t, keys, i); then per search step an
			// Exec(3) and a CLd at mid; St(t, out, i, lo).
			i0 := b.Index * primBlock
			m := min(primBlock, n-i0)
			var found [primBlock]uint32
			for l, key := range LdWide(b, keys, 0, i0, m) {
				lo, k := steps.find(key)
				b.instr[l] += 4 * int64(k)
				b.cld += int64(k)
				found[l] = uint32(lo)
			}
			StWide(b, out, 0, i0, found[:m])
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
		// Each step, Exec(3) and an Ld at mid, is sampled in place and
		// charged to the counters at the end.
		lo, hi, steps := 0, len(dict), 0
		for ; lo < hi; steps++ {
			mid := (lo + hi) / 2
			if s := t.sample; s != nil && len(*s) < sampleCap {
				*s = append(*s, gdict.addr(mid))
			}
			if gdict.data[mid] < key {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		t.instr += 4 * int64(steps)
		t.gld += int64(steps)
		t.gldB += 4 * int64(steps)
		St(t, out, i, uint32(lo))
	})
}

// searchSteps is the batched search of one key: the index lo it finds in
// dict (the first entry not below key, for a sorted dict) and the number of
// steps it takes.
func searchSteps(dict []uint32, key uint32) (lo, steps int) {
	hi := len(dict)
	for ; lo < hi; steps++ {
		if mid := (lo + hi) / 2; dict[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, steps
}

// stepTable is searchSteps precomputed for the values of one dictionary:
// slot v−min holds searchSteps(dict, v) for each value v of dict, as lo |
// steps<<stepShift. The table is built when the dictionary's values span
// fewer than stepTableRangePerKey slots a key searched — at most as many
// searches as the keys would make, and a slot array no larger than the
// presence table DistinctU32 builds for such a column — and its slots are
// recycled storage that is never cleared: find trusts a slot only when
// dict[lo] is the key itself, which an unfilled slot cannot fake for a key
// outside the dictionary. Any other key, and every key of a dictionary
// without a table, is searched.
type stepTable struct {
	dict  []uint32
	min   uint32
	slots *[]uint32 // nil: no table
}

const (
	stepTableRangePerKey = 4
	stepShift            = 26 // lo below 1<<26, steps (at most 27) above
)

// stepSlots recycles the slot arrays of step tables.
var stepSlots sync.Pool

func newStepTable(dict []uint32, keys int) stepTable {
	st := stepTable{dict: dict}
	if len(dict) == 0 || len(dict) >= 1<<stepShift || len(dict) > keys {
		return st
	}
	lo, hi := slices.Min(dict), slices.Max(dict)
	if uint64(hi-lo) >= stepTableRangePerKey*uint64(keys) {
		return st
	}
	slots, _ := stepSlots.Get().(*[]uint32)
	if slots == nil {
		slots = new([]uint32)
	}
	*slots = grow(*slots, int(hi-lo)+1)
	for _, v := range dict {
		x, k := searchSteps(dict, v)
		(*slots)[v-lo] = uint32(x) | uint32(k)<<stepShift
	}
	st.min, st.slots = lo, slots
	return st
}

// find is searchSteps(dict, key), from the table when it holds the key.
func (st *stepTable) find(key uint32) (lo, steps int) {
	if st.slots != nil {
		if o := key - st.min; o < uint32(len(*st.slots)) {
			e := (*st.slots)[o]
			if lo := int(e & (1<<stepShift - 1)); lo < len(st.dict) && st.dict[lo] == key {
				return lo, int(e >> stepShift)
			}
		}
	}
	return searchSteps(st.dict, key)
}

// free returns the slot array for the next table.
func (st *stepTable) free() {
	if st.slots != nil {
		stepSlots.Put(st.slots)
		st.slots = nil
	}
}
