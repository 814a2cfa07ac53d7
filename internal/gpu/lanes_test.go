package gpu

import (
	"reflect"
	"slices"
	"testing"
)

// lazyCase is one production phased shape written twice: lazy, the way
// production writes it — block-wide primitives, Block.Retire, only the
// lanes it needs as Threads readied — and per lane, a body over b.Lanes()
// that meters every access on the lane that makes it and retires lanes one
// by one. Each form launches on d and returns the device memory it wrote.
type lazyCase struct {
	name          string
	lazy, perLane func(d *Device) []uint32
}

// lazyKeys returns n keys from a small range, so that sorting meets
// duplicates.
func lazyKeys(d *Device, n int) *Buffer[uint32] {
	buf := Alloc[uint32](d, n)
	for i, k := range xorshiftKeys(n) {
		buf.Host()[i] = k % 1000
	}
	return buf
}

// lazyNetwork launches bitonicKernel over n keys in form.
func lazyNetwork(n, form int) func(d *Device) []uint32 {
	return func(d *Device) []uint32 {
		buf := lazyKeys(d, n)
		cfg := LaunchConfig{Name: "batch_bitonic", Grid: (n + primBlock - 1) / primBlock, Block: primBlock, SharedU32: primBlock}
		d.MustLaunchPhased(cfg, bitonicPhases, bitonicKernel(buf, form))
		return buf.Host()
	}
}

// lazyScan runs scanBlocks over n keys, and perLaneScan is its per-lane
// body.
func lazyScan(n int) func(d *Device) []uint32 {
	return func(d *Device) []uint32 {
		in, out, totals := lazyKeys(d, n), Alloc[uint32](d, n), Alloc[uint32](d, (n+primBlock-1)/primBlock)
		scanBlocks(d, in, out, totals)
		return slices.Concat(out.Host(), totals.Host())
	}
}

func perLaneScan(n int) func(d *Device) []uint32 {
	return func(d *Device) []uint32 {
		in, out, totals := lazyKeys(d, n), Alloc[uint32](d, n), Alloc[uint32](d, (n+primBlock-1)/primBlock)
		cfg := LaunchConfig{Name: "scan_u32", Grid: totals.Len(), Block: primBlock, SharedU32: 2 * primBlock}
		d.MustLaunchPhased(cfg, primLog+2, func(b *Block, p int) {
			lanes := b.Lanes()
			for l := range lanes {
				t := &lanes[l]
				i := t.GlobalID()
				switch {
				case p == 0:
					v := uint32(0)
					if i < n {
						v = Ld(t, in, i)
					}
					t.Reg[0] = uint64(v)
					t.SetSharedU32(l, v)
				case p <= primLog:
					stride, cur := 1<<(p-1), ((p-1)&1)*primBlock
					x := t.SharedU32(cur + l)
					if l >= stride {
						t.Exec(1)
						x += t.SharedU32(cur + l - stride)
					}
					t.SetSharedU32(primBlock-cur+l, x)
				default:
					incl := t.SharedU32((primLog&1)*primBlock + l)
					if i < n {
						St(t, out, i, incl-uint32(t.Reg[0]))
					}
					if l == primBlock-1 {
						St(t, totals, t.Block, incl)
					}
					t.Retire()
				}
			}
		})
		return slices.Concat(out.Host(), totals.Host())
	}
}

// lazyReduce runs blockReduceU32 over n keys, and perLaneReduce is its
// per-lane body: reduceLoads loads a lane at block stride, then the tree.
func lazyReduce(n int) func(d *Device) []uint32 {
	return func(d *Device) []uint32 {
		return blockReduceU32(d, lazyKeys(d, n), "reduce_max_u32", func(a, b uint32) uint32 { return max(a, b) }).Host()
	}
}

func perLaneReduce(n int) func(d *Device) []uint32 {
	return func(d *Device) []uint32 {
		in := lazyKeys(d, n)
		const tile = primBlock * reduceLoads
		partial := Alloc[uint32](d, (n+tile-1)/tile)
		cfg := LaunchConfig{Name: "reduce_max_u32", Grid: partial.Len(), Block: primBlock, SharedU32: primBlock}
		d.MustLaunchPhased(cfg, primLog+2, func(b *Block, p int) {
			lanes := b.Lanes()
			switch {
			case p == 0:
				for l := range lanes {
					t := &lanes[l]
					v := uint32(0)
					for i := t.Block*tile + l; i < min(n, (t.Block+1)*tile); i += primBlock {
						t.Exec(1)
						v = max(v, Ld(t, in, i))
					}
					t.SetSharedU32(l, v)
				}
			case p <= primLog:
				for l := range primBlock >> p {
					t := &lanes[l]
					t.Exec(1)
					t.SetSharedU32(l, max(t.SharedU32(l), t.SharedU32(l+primBlock>>p)))
				}
			default:
				t := &lanes[0]
				St(t, partial, t.Block, t.SharedU32(0))
				for l := range lanes {
					lanes[l].Retire()
				}
			}
		})
		return partial.Host()
	}
}

// noneqInput lays out arrays of the given sizes back to back and a
// descriptor (offset, size) for each, sortnet's bitonic_noneq input.
func noneqInput(d *Device, sizes []int) (data, desc *Buffer[uint32]) {
	total := 0
	for _, s := range sizes {
		total += s
	}
	data, desc = lazyKeys(d, total), Alloc[uint32](d, 2*len(sizes))
	off := 0
	for k, s := range sizes {
		desc.Host()[2*k], desc.Host()[2*k+1] = uint32(off), uint32(s)
		off += s
	}
	return data, desc
}

// lazyNonEq is sortnet's bitonic_noneq kernel: lane 0 alone stages the
// block's descriptor and keeps it in its registers, the lanes past the pad
// retire at the load, the fused network, the store. perLaneNonEq is the
// same program lane by lane, a phase a network step.
func lazyNonEq(sizes []int) func(d *Device) []uint32 {
	return func(d *Device) []uint32 {
		data, desc := noneqInput(d, sizes)
		cfg := LaunchConfig{Name: "bitonic_noneq", Grid: len(sizes), Block: primBlock, SharedU32: primBlock + 2}
		d.MustLaunchPhased(cfg, NetworkSteps(primBlock)+3, func(b *Block, p int) {
			switch p {
			case 0:
				t := b.Lane(0)
				t.SetSharedU32(primBlock, Ld(t, desc, 2*t.Block))
				t.SetSharedU32(primBlock+1, Ld(t, desc, 2*t.Block+1))
			case 1:
				off := int(b.SharedU32Bcast(0, primBlock, primBlock))
				size := int(b.SharedU32Bcast(0, primBlock, primBlock+1))
				pad := ceilPow2(size)
				b.Lane(0).Reg = [2]uint64{uint64(off), uint64(size)}
				b.Retire(pad, primBlock-pad)
				b.SetSharedU32Wide(0, 0, LdWide(b, data, 0, off, size))
				for l := size; l < pad; l++ {
					b.SetSharedU32Wide(l, l, []uint32{^uint32(0)})
				}
			case 2:
				pad := ceilPow2(int(b.Lane(0).Reg[1]))
				BitonicNetworkU32(b, pad, pad)
			default:
				reg := b.Lane(0).Reg
				off, size := int(reg[0]), int(reg[1])
				StWide(b, data, 0, off, b.SharedU32Wide(0, 0, size))
				b.Retire(0, ceilPow2(size))
			}
		})
		return data.Host()
	}
}

func perLaneNonEq(sizes []int) func(d *Device) []uint32 {
	return func(d *Device) []uint32 {
		data, desc := noneqInput(d, sizes)
		cfg := LaunchConfig{Name: "bitonic_noneq", Grid: len(sizes), Block: primBlock, SharedU32: primBlock + 2}
		d.MustLaunchPhased(cfg, NetworkSteps(primBlock)+3, func(b *Block, p int) {
			lanes := b.Lanes()
			off, size := int(lanes[0].Reg[0]), int(lanes[0].Reg[1])
			steps := networkSteps(ceilPow2(size))
			switch {
			case p == 0:
				t := &lanes[0]
				t.SetSharedU32(primBlock, Ld(t, desc, 2*t.Block))
				t.SetSharedU32(primBlock+1, Ld(t, desc, 2*t.Block+1))
			case p == 1:
				for l := range lanes {
					t := &lanes[l]
					off, size := int(t.SharedU32(primBlock)), int(t.SharedU32(primBlock+1))
					if l >= ceilPow2(size) {
						t.Retire()
						continue
					}
					t.Reg = [2]uint64{uint64(off), uint64(size)}
					v := ^uint32(0)
					if l < size {
						v = Ld(t, data, off+l)
					}
					t.SetSharedU32(l, v)
				}
			case p-2 < len(steps):
				CompareExchangeU32(lanes[:ceilPow2(size)], steps[p-2][0], steps[p-2][1], ceilPow2(size))
			default:
				for l := range lanes[:ceilPow2(size)] {
					t := &lanes[l]
					if l < size {
						St(t, data, off+l, t.SharedU32(l))
					}
					t.Retire()
				}
			}
		})
		return data.Host()
	}
}

// ceilPow2 rounds up to a power of two, at least 2.
func ceilPow2(n int) int {
	p := 2
	for p < n {
		p *= 2
	}
	return p
}

// TestLazyLanesMatchPerLane holds the phased runner's lazy lanes to the
// per-lane form: every production phased shape — the fused network of
// batch_bitonic, scan_u32, reduce_max_u32's loads at block stride, and
// bitonic_noneq with its lane-0 descriptor and lanes retiring early — run
// lazily and lane by lane over b.Lanes() must give the same LaunchStats,
// device totals and memory, inline and over three host goroutines, and
// inline the same coalescing sample of block 0, lane by lane and access by
// access.
func TestLazyLanesMatchPerLane(t *testing.T) {
	noneqSizes := []int{17, 3, 2, 256, 100, 64, 5, 129, 33}
	for _, c := range []lazyCase{
		{"fused network", lazyNetwork(3*primBlock-68, fused), lazyNetwork(3*primBlock-68, perAccess)},
		{"scan", lazyScan(3*primBlock + 77), perLaneScan(3*primBlock + 77)},
		{"reduce at stride", lazyReduce(2*primBlock*reduceLoads + 700), perLaneReduce(2*primBlock*reduceLoads + 700)},
		{"noneq", lazyNonEq(noneqSizes), perLaneNonEq(noneqSizes)},
	} {
		t.Run(c.name, func(t *testing.T) {
			type result struct {
				launches []LaunchStats
				totals   Stats
				mem      []uint32
				samples  [][]int64
			}
			run := func(workers int, form func(*Device) []uint32) result {
				d := NewDevice(M2050())
				d.forceWorkers = workers
				r := result{mem: slices.Clone(form(d))}
				r.launches, r.totals = d.Launches(), d.Stats()
				if workers == 1 {
					for _, s := range d.samples[0][:primBlock] {
						r.samples = append(r.samples, slices.Clone(s))
					}
				}
				return r
			}
			want := run(1, c.perLane)
			if len(want.launches) != 1 || len(slices.Concat(want.samples...)) == 0 {
				t.Fatalf("per-lane form made %d launches, %d sampled accesses", len(want.launches), len(slices.Concat(want.samples...)))
			}
			for _, workers := range []int{1, 3} {
				got := run(workers, c.lazy)
				if !reflect.DeepEqual(got.launches, want.launches) {
					t.Errorf("%d workers: launch differs from the per-lane form:\n got %+v\nwant %+v", workers, got.launches, want.launches)
				}
				if got.totals != want.totals {
					t.Errorf("%d workers: device totals differ:\n got %+v\nwant %+v", workers, got.totals, want.totals)
				}
				if !reflect.DeepEqual(got.mem, want.mem) {
					t.Errorf("%d workers: memory differs from the per-lane form", workers)
				}
				if workers == 1 && !reflect.DeepEqual(got.samples, want.samples) {
					t.Errorf("block 0's coalescing sample differs from the per-lane form")
				}
			}
		})
	}
}
