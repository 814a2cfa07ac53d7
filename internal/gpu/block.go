package gpu

import "math/bits"

// Block is the block-wide context of a kernel charged a block at a time:
// the argument of a WideKernel and of a BlockKernel. Its primitives each
// charge a range of the block's lanes — every lane in the range makes the
// same access or issues the same instructions — and document the per-lane
// loop of Thread calls they equal: one update per counter for the whole
// range, each lane's instructions to its own entry of the block's array
// (which the warp accounting reads), and in block 0 each lane's addresses
// appended to its own coalescing sample, so that the k-th access of every
// lane still forms the k-th warp instruction. A Block lives in the recycled
// block scratch, and so do the views its primitives return and the Threads
// it readies: all are valid only while the block runs.
type Block struct {
	// Dev is the device running the kernel.
	Dev *Device
	// Index is the block index within the grid (blockIdx.x); Dim the
	// threads per block and GridDim the number of blocks.
	Index, Dim, GridDim int

	rt      *blockRT
	instr   []int64   // issued instructions per lane, beyond every
	every   int64     // the instructions every lane of the block issued
	samples [][]int64 // per-lane coalescing samples; nil outside block 0

	gld, gst, gldB, gstB, sld, sst, cld int64
}

// Lanes readies the Thread of every lane of the block (Lane) and returns
// them all, lanes[l].Lane == l: the per-lane form of a kernel handed a
// Block. The block-wide primitives charge the lanes the Thread calls would,
// so a kernel may mix the two forms.
func (b *Block) Lanes() []Thread {
	for l := range b.Dim {
		b.Lane(l)
	}
	return b.rt.lanes[:b.Dim]
}

// Lane readies lane l's Thread, if the block has not yet, and returns it.
// A lane is readied once per block — block and lane ids set, registers and
// counters zero, in block 0 its coalescing sample attached — and keeps its
// state through the block's later calls, the barriers of a phased kernel
// included; what it meters is added to the block's counters when the block
// ends. Lanes never asked for cost the host nothing.
func (b *Block) Lane(l int) *Thread {
	rt := b.rt
	t := &rt.lanes[l]
	if !rt.isReady[l] {
		*t = Thread{Dev: b.Dev, Block: b.Index, Lane: l, BlockDim: b.Dim, GridDim: b.GridDim, block: rt}
		if b.samples != nil {
			t.sample = &b.samples[l]
		}
		rt.isReady[l] = true
		rt.ready = append(rt.ready, int32(l))
	}
	return t
}

// sumLanes adds what the readied lanes of a finished block metered to what
// the block-wide primitives charged — each lane's instruction count to its
// entry of the block's array, the sum-only counters to the block's — and
// leaves no lane readied for the next block.
func (b *Block) sumLanes() {
	rt := b.rt
	for _, l := range rt.ready {
		t := &rt.lanes[l]
		b.instr[l] += t.instr
		b.addCounters(t)
		rt.isReady[l] = false
	}
	rt.ready = rt.ready[:0]
}

// Retire is for k := range n { lane l0+k: Thread.Retire() } in a phased
// launch: the lanes leave after their work of the current phase, each lane
// not yet retired charged for the barriers it reached, one per earlier
// phase — in one update for the range while no lane of the block has
// retired. Retiring a retired lane is a no-op; Retire outside a phased
// launch panics.
func (b *Block) Retire(l0, n int) {
	rt := b.rt
	if rt.phases == 0 {
		panic("gpu: Retire called outside a phased launch")
	}
	if rt.live == 0 {
		return
	}
	cost := syncCost * rt.phase
	if rt.live == b.Dim {
		b.Exec(l0, n, cost)
		if rt.live -= n; rt.live > 0 {
			for k := range rt.retired[l0 : l0+n] {
				rt.retired[l0+k] = true
			}
		}
		return
	}
	for l := l0; l < l0+n; l++ {
		if !rt.retired[l] {
			rt.retired[l] = true
			b.instr[l] += int64(cost)
			rt.live--
		}
	}
}

// addCounters adds a Thread's sum-only counters to the block's.
func (b *Block) addCounters(t *Thread) {
	b.gld += t.gld
	b.gst += t.gst
	b.gldB += t.gldB
	b.gstB += t.gstB
	b.sld += t.sld
	b.sst += t.sst
	b.cld += t.cld
}

// Exec is for k := range n { lane l0+k: Exec(c) }. A charge to the whole
// block is one addition to every.
func (b *Block) Exec(l0, n, c int) {
	if l0 == 0 && n == len(b.instr) {
		b.every += int64(c)
		return
	}
	ins := b.instr[l0 : l0+n]
	for k := range ins {
		ins[k] += int64(c)
	}
}

// record charges one global access of size bytes to each of the n lanes
// from l0, lane l0+k's at addr+k·stride.
func (b *Block) record(l0, n int, addr, stride, size int64, store bool) {
	b.Exec(l0, n, 1)
	if store {
		b.gst += int64(n)
		b.gstB += int64(n) * size
	} else {
		b.gld += int64(n)
		b.gldB += int64(n) * size
	}
	if b.samples != nil {
		for k := range b.samples[l0 : l0+n] {
			if s := &b.samples[l0+k]; len(*s) < sampleCap {
				*s = append(*s, addr+int64(k)*stride)
			}
		}
	}
}

// recordLane is record for one lane: the scatters and gathers of the
// wide kernels go through it, and record's range arithmetic would double
// their cost.
func (b *Block) recordLane(l int, addr, size int64, store bool) {
	b.instr[l]++
	if store {
		b.gst++
		b.gstB += size
	} else {
		b.gld++
		b.gldB += size
	}
	if b.samples != nil {
		if s := &b.samples[l]; len(*s) < sampleCap {
			*s = append(*s, addr)
		}
	}
}

// LdWide is for k := range n { lane l0+k: Ld(t, buf, i+k) }: n lanes each
// load one element, in one update per counter. It returns the elements as
// a view of device storage, valid only within the kernel invocation.
func LdWide[T any](b *Block, buf *Buffer[T], l0, i, n int) []T {
	b.record(l0, n, buf.addr(i), buf.elemSize, buf.elemSize, false)
	return buf.data[i : i+n : i+n]
}

// StWide is for k, x := range v { lane l0+k: St(t, buf, i+k, x) }.
func StWide[T any](b *Block, buf *Buffer[T], l0, i int, v []T) {
	b.record(l0, len(v), buf.addr(i), buf.elemSize, buf.elemSize, true)
	copy(buf.data[i:i+len(v)], v)
}

// LdBcast is for k := range n { lane l0+k: Ld(t, buf, i) }: n lanes load
// the same element.
func LdBcast[T any](b *Block, buf *Buffer[T], l0, n, i int) T {
	b.record(l0, n, buf.addr(i), 0, buf.elemSize, false)
	return buf.data[i]
}

// LdLane is lane l: Ld(t, buf, i), one lane's gather.
func LdLane[T any](b *Block, buf *Buffer[T], l, i int) T {
	b.recordLane(l, buf.addr(i), buf.elemSize, false)
	return buf.data[i]
}

// StLane is lane l: St(t, buf, i, v), one lane's scatter.
func StLane[T any](b *Block, buf *Buffer[T], l, i int, v T) {
	b.recordLane(l, buf.addr(i), buf.elemSize, true)
	buf.data[i] = v
}

// AtomicExchLaneU32 is lane l: AtomicExchU32(t, buf, i, v), host-atomic and
// charged as a load and a store of element i.
func AtomicExchLaneU32(b *Block, buf *Buffer[uint32], l, i int, v uint32) uint32 {
	b.recordLane(l, buf.addr(i), buf.elemSize, false)
	b.recordLane(l, buf.addr(i), buf.elemSize, true)
	return atomicExchU32(&buf.data[i], v)
}

// SharedU32Wide is for k := range n { lane l0+k: t.SharedU32(i+k) },
// returning elements [i, i+n) of the block's shared uint32 array as a view
// valid only within the kernel invocation.
func (b *Block) SharedU32Wide(l0, i, n int) []uint32 {
	b.Exec(l0, n, 1)
	b.sld += int64(n)
	return b.rt.sharedU32[i : i+n : i+n]
}

// SetSharedU32Wide is for k, x := range v { lane l0+k: t.SetSharedU32(i+k, x) }.
func (b *Block) SetSharedU32Wide(l0, i int, v []uint32) {
	b.Exec(l0, len(v), 1)
	b.sst += int64(len(v))
	copy(b.rt.sharedU32[i:i+len(v)], v)
}

// SharedU32Bcast is for k := range n { lane l0+k: t.SharedU32(i) }.
func (b *Block) SharedU32Bcast(l0, n, i int) uint32 {
	b.Exec(l0, n, 1)
	b.sld += int64(n)
	return b.rt.sharedU32[i]
}

// BitonicNetworkU32 sorts each aligned size-element segment of the first n
// words of the block's shared uint32 array ascending with the whole bitonic
// network, lanes [0, n) doing the work of every (k, j) step in one call of a
// phased kernel. It equals the per-step network, one phase per step from
// the phase it is called in:
//
//	for k := 2; k <= size; k *= 2 {
//		for j := k / 2; j > 0; j /= 2 {
//			// lane l of [0, n) with l&j == 0:
//			//	a, b := t.SharedU32(l), t.SharedU32(l+j); t.Exec(2)
//			//	if (a > b) == (l&(size-1)&k == 0) {
//			//		t.SetSharedU32(l, b); t.SetSharedU32(l+j, a)
//			//	}
//			// then the phase ends: a barrier
//		}
//	}
//
// The call passes the barriers between its steps — the block is at the
// phase of the last step when it returns, so the kernel's next call comes
// at the phase after it, and Retire charges every lane live through the
// steps for their barriers. size is a power of two from 2 to 256 and n
// a multiple of it.
func BitonicNetworkU32(b *Block, n, size int) {
	if size < 2 || size > 256 || size&(size-1) != 0 || n%size != 0 {
		panic("gpu: BitonicNetworkU32: size must be a power of two in [2, 256] dividing n")
	}
	if b.rt.phases == 0 {
		panic("gpu: BitonicNetworkU32 called outside a phased launch")
	}
	net := &networks[bits.Len(uint(size))-1]
	sh := b.rt.sharedU32[:n]
	var swaps int64
	for base := 0; base < n; base += size {
		seg := sh[base : base+size]
		ins := b.instr[base : base+size]
		for _, p := range net.pairs {
			// Branch-free: the swap is a mask, so unsorted keys cost no
			// mispredicted branch.
			x, y := seg[p.lo], seg[p.hi]
			var c uint32
			if (x > y) == p.up {
				c = 1
			}
			d := (x ^ y) & -c
			seg[p.lo], seg[p.hi] = x^d, y^d
			ins[p.lo] += 2 * int64(c)
			swaps += int64(c)
		}
		for l, c := range net.cost {
			ins[l] += c
		}
	}
	b.sld += 2 * int64(n/size) * int64(len(net.pairs))
	b.sst += 2 * swaps
	b.rt.phase += net.steps - 1
}

// NetworkSteps is the number of (k, j) steps of the bitonic network over
// size elements, log2(size)·(log2(size)+1)/2: the phases one
// BitonicNetworkU32 call spans.
func NetworkSteps(size int) int {
	l := bits.Len(uint(size)) - 1
	return l * (l + 1) / 2
}

// network is the bitonic network over size elements as a flat table: pairs
// lists every compare-exchange of every step in step order, and cost is
// what a lane is charged whether or not its compares swap, 4 instructions
// (two shared loads and the Exec(2)) per pair it leads.
type network struct {
	pairs []netPair
	cost  []int64
	steps int
}

// netPair is one compare-exchange: elements lo and hi of a segment, hi =
// lo+j, ordered ascending when up.
type netPair struct {
	lo, hi uint8
	up     bool
}

// networks holds the network of each size 2^i at index i, for 2 to 256.
var networks = func() (nets [9]network) {
	for e := 1; e < len(nets); e++ {
		size := 1 << e
		net := &nets[e]
		net.cost = make([]int64, size)
		for k := 2; k <= size; k *= 2 {
			for j := k / 2; j > 0; j /= 2 {
				net.steps++
				for l := 0; l < size; l++ {
					if l&j == 0 {
						net.pairs = append(net.pairs, netPair{uint8(l), uint8(l + j), l&k == 0})
						net.cost[l] += 4
					}
				}
			}
		}
	}
	return nets
}()
