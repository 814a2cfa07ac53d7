package gpu_test

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"gsnp/internal/gpu"
	"gsnp/internal/sortnet"
)

// TestPhasedKernelsMatchSyncOracle holds every production phased kernel to
// a twin written in the Sync form — one goroutine per lane, an explicit
// Thread.Sync at each barrier, lanes leaving by returning — that meters the
// same device program by construction. Each kernel runs through its public
// entry point, inline and fanned out over three host goroutines, and must
// give the twin's LaunchStats for every launch, its device totals and its
// memory. The sortnet kernels are tested here, beside the simulator, because
// only a test of this directory can force the fan-out; the single-pass twin
// spells out the block-at-a-time batch_gather and batch_scatter per lane
// too.
func TestPhasedKernelsMatchSyncOracle(t *testing.T) {
	for _, c := range []struct {
		name       string
		real, twin func(d *gpu.Device) []uint32
	}{
		// Three class-8 arrays, 24 elements: one 32-lane block whose top
		// eight lanes load padding and store nothing.
		{"batch_bitonic class 8, 32-lane block", singlePass(8, 3, 6), syncSinglePass(8, 3, 6)},
		// 40 class-8 arrays, 320 elements: the second 256-lane block is
		// short.
		{"batch_bitonic class 8, short last block", singlePass(spread(40, 2, 8)...), syncSinglePass(spread(40, 2, 8)...)},
		// A class-256 batch fills its blocks (n arrays are n·256 elements);
		// four blocks, split over the forced helpers, and a singleton the
		// sort leaves alone.
		{"batch_bitonic class 256", singlePass(256, 129, 200, 1, 255), syncSinglePass(256, 129, 200, 1, 255)},
		{"scan_u32", scan(3*256 + 77), syncScan(3*256 + 77)},
		{"reduce_max_u32", reduceMax(3*2048 + 500), syncReduceMax(3*2048 + 500)},
		// Empty arrays and singletons are skipped, arrays over 256 go to
		// the host, and every pad from 2 to 256 retires its own lanes.
		{"bitonic_noneq", nonEq(noneqSizes...), syncNonEq(noneqSizes...)},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(workers int, form func(*gpu.Device) []uint32) ([]gpu.LaunchStats, gpu.Stats, []uint32) {
				d := gpu.NewDevice(gpu.M2050())
				d.ForceWorkers(workers)
				mem := form(d)
				return d.Launches(), d.Stats(), mem
			}
			want, wantTotals, wantMem := run(1, c.twin)
			if len(want) == 0 || wantTotals.Instructions == 0 {
				t.Fatalf("oracle launched nothing: %+v", wantTotals)
			}
			for _, workers := range []int{1, 3} {
				got, totals, mem := run(workers, c.real)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d workers: launches differ from the Sync oracle:\n got %+v\nwant %+v", workers, got, want)
				}
				if totals != wantTotals {
					t.Errorf("%d workers: device totals differ:\n got %+v\nwant %+v", workers, totals, wantTotals)
				}
				if !reflect.DeepEqual(mem, wantMem) {
					t.Errorf("%d workers: memory differs from the Sync oracle", workers)
				}
			}
		})
	}
}

// noneqSizes are the array sizes of the bitonic_noneq case.
var noneqSizes = []int{300, 0, 1, 2, 3, 5, 8, 9, 17, 31, 33, 64, 65, 100, 128, 129, 200, 256, 257, 7}

// spread returns n array sizes over [lo, hi], the first of them hi, so that
// the size class is fixed.
func spread(n, lo, hi int) []int {
	sizes := []int{hi}
	for i := 1; i < n; i++ {
		sizes = append(sizes, lo+(i*37)%(hi-lo+1))
	}
	return sizes
}

// oracleBatches builds arrays of the given sizes with keys drawn from a
// small range, so that sorting meets duplicates.
func oracleBatches(sizes []int) *sortnet.Batches {
	b := &sortnet.Batches{Bounds: []int32{0}}
	x := uint32(2463534242)
	for _, size := range sizes {
		for k := 0; k < size; k++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			b.Data = append(b.Data, x%1000)
		}
		b.Bounds = append(b.Bounds, int32(len(b.Data)))
	}
	return b
}

func singlePass(sizes ...int) func(*gpu.Device) []uint32 {
	return onDevice(sizes, sortnet.Resident.SinglePassBitonic)
}

func nonEq(sizes ...int) func(*gpu.Device) []uint32 {
	return onDevice(sizes, sortnet.Resident.NonEqBitonic)
}

// onDevice uploads the oracle batches of sizes, sorts them on the device
// and reads them back.
func onDevice(sizes []int, sort func(sortnet.Resident, *gpu.Device) sortnet.Stats) func(*gpu.Device) []uint32 {
	return func(d *gpu.Device) []uint32 {
		b := oracleBatches(sizes)
		r := b.Upload(d)
		sort(r, d)
		r.Download(b)
		return b.Data
	}
}

// oracleInput is the buffer the scan and reduce cases work on.
func oracleInput(d *gpu.Device, n int) *gpu.Buffer[uint32] {
	in := gpu.Alloc[uint32](d, n)
	for i, h := 0, in.Host(); i < n; i++ {
		h[i] = uint32(i*2654435761) >> 20
	}
	return in
}

func scan(n int) func(*gpu.Device) []uint32 {
	return func(d *gpu.Device) []uint32 {
		in, out := oracleInput(d, n), gpu.Alloc[uint32](d, n)
		total := gpu.ExclusiveScanU32(d, in, out)
		return append(out.Host(), uint32(total))
	}
}

func reduceMax(n int) func(*gpu.Device) []uint32 {
	return func(d *gpu.Device) []uint32 {
		return []uint32{gpu.ReduceMaxU32(d, oracleInput(d, n))}
	}
}

// The Sync twins. Each spells out the host side of its entry point —
// allocations, copies, padding — and the kernel with explicit barriers.

// oracleBlock and oracleLog are the primitives' block size and its base-2
// logarithm; oracleReduceLoads is the elements a reduce lane folds before
// the tree.
const (
	oracleBlock       = 256
	oracleLog         = 8
	oracleReduceLoads = 8
	oraclePad         = ^uint32(0)
)

// syncCompareExchange is one (k, j) step of the bitonic network for one
// lane, ascending within each aligned size-element sub-array.
func syncCompareExchange(t *gpu.Thread, k, j, size int) {
	l := t.Lane
	if p := l ^ j; p > l && p < t.BlockDim {
		a, b := t.SharedU32(l), t.SharedU32(p)
		t.Exec(2)
		if (a > b) == (l&(size-1)&k == 0) {
			t.SetSharedU32(l, b)
			t.SetSharedU32(p, a)
		}
	}
}

// syncNetwork runs the whole bitonic network over size elements, a barrier
// after every step.
func syncNetwork(t *gpu.Thread, size int) {
	for k := 2; k <= size; k *= 2 {
		for j := k / 2; j > 0; j /= 2 {
			syncCompareExchange(t, k, j, size)
			t.Sync()
		}
	}
}

func ceilPow2(n int) int { return max(2, 1<<bits.Len(uint(n-1))) }

// syncSinglePass is the single-pass sort of arrays resident on the device:
// the words uploaded, the member list uploaded, batch_gather, batch_bitonic
// and batch_scatter over one class, the oversized arrays read back, sorted
// and written back, and the words read back.
func syncSinglePass(sizes ...int) func(*gpu.Device) []uint32 {
	return func(d *gpu.Device) []uint32 {
		b := oracleBatches(sizes)
		data := gpu.Alloc[uint32](d, len(b.Data))
		defer data.Free()
		data.CopyIn(b.Data)
		largest := 0
		var desc []uint32
		for i := 0; i < b.NumArrays(); i++ {
			largest = max(largest, b.SizeOf(i))
		}
		class := min(ceilPow2(largest), 256)
		for i := 0; i < b.NumArrays(); i++ {
			if s := b.SizeOf(i); s >= 2 && s <= class {
				desc = append(desc, uint32(b.Bounds[i]), uint32(s))
			}
		}
		members := gpu.Alloc[uint32](d, len(desc))
		defer members.Free()
		members.CopyIn(desc)
		total := len(desc) / 2 * class
		batch := gpu.Alloc[uint32](d, total)
		defer batch.Free()
		stage := func(name string) {
			d.MustLaunch(gpu.LaunchConfig{Name: name, Grid: (total + 255) / 256, Block: 256}, func(t *gpu.Thread) {
				i := t.GlobalID()
				if i >= total {
					return
				}
				k, j := i/class, i%class
				off, size := int(gpu.Ld(t, members, 2*k)), int(gpu.Ld(t, members, 2*k+1))
				if name == "batch_gather" {
					v := oraclePad
					if j < size {
						v = gpu.Ld(t, data, off+j)
					}
					gpu.St(t, batch, i, v)
				} else if j < size {
					gpu.St(t, data, off+j, gpu.Ld(t, batch, i))
				}
			})
		}
		stage("batch_gather")
		block := 256
		if total < block {
			block = max(32, ceilPow2(total))
		}
		d.MustLaunch(gpu.LaunchConfig{Name: "batch_bitonic", Grid: (total + block - 1) / block, Block: block, SharedU32: block, Sync: true}, func(t *gpu.Thread) {
			i := t.GlobalID()
			v := oraclePad
			if i < total {
				v = gpu.Ld(t, batch, i)
			}
			t.SetSharedU32(t.Lane, v)
			t.Sync()
			syncNetwork(t, class)
			if i < total {
				gpu.St(t, batch, i, t.SharedU32(t.Lane))
			}
		})
		stage("batch_scatter")
		oversized(data, b)
		data.CopyOut(b.Data)
		return b.Data
	}
}

// oversized reads back, sorts and writes back each array of b longer than
// 256 in data, its words on the device.
func oversized(data *gpu.Buffer[uint32], b *sortnet.Batches) {
	for i := 0; i < b.NumArrays(); i++ {
		if b.SizeOf(i) > 256 {
			a := data.Host()[b.Bounds[i]:b.Bounds[i+1]]
			data.CopyOut(a)
			slices.Sort(a)
			data.CopyIn(a)
		}
	}
}

func syncNonEq(sizes ...int) func(*gpu.Device) []uint32 {
	return func(d *gpu.Device) []uint32 {
		b := oracleBatches(sizes)
		data := gpu.Alloc[uint32](d, len(b.Data))
		defer data.Free()
		data.CopyIn(b.Data)
		var desc []uint32
		for i := 0; i < b.NumArrays(); i++ {
			if s := b.SizeOf(i); s > 1 && s <= 256 {
				desc = append(desc, uint32(b.Bounds[i]), uint32(s))
			}
		}
		bounds := gpu.Alloc[uint32](d, len(desc))
		defer bounds.Free()
		bounds.CopyIn(desc)
		d.MustLaunch(gpu.LaunchConfig{Name: "bitonic_noneq", Grid: len(desc) / 2, Block: 256, SharedU32: 258, Sync: true}, func(t *gpu.Thread) {
			if t.Lane == 0 {
				t.SetSharedU32(256, gpu.Ld(t, bounds, 2*t.Block))
				t.SetSharedU32(257, gpu.Ld(t, bounds, 2*t.Block+1))
			}
			t.Sync()
			off, size := int(t.SharedU32(256)), int(t.SharedU32(257))
			pad := ceilPow2(size)
			if t.Lane >= pad {
				return
			}
			v := oraclePad
			if t.Lane < size {
				v = gpu.Ld(t, data, off+t.Lane)
			}
			t.SetSharedU32(t.Lane, v)
			t.Sync()
			syncNetwork(t, pad)
			if t.Lane < size {
				gpu.St(t, data, off+t.Lane, t.SharedU32(t.Lane))
			}
		})
		oversized(data, b)
		data.CopyOut(b.Data)
		return b.Data
	}
}

func syncScan(n int) func(*gpu.Device) []uint32 {
	return func(d *gpu.Device) []uint32 {
		in, out := oracleInput(d, n), gpu.Alloc[uint32](d, n)
		grid := (n + oracleBlock - 1) / oracleBlock
		blockTotals := gpu.Alloc[uint32](d, grid)
		defer blockTotals.Free()
		d.MustLaunch(gpu.LaunchConfig{Name: "scan_u32", Grid: grid, Block: oracleBlock, SharedU32: 2 * oracleBlock, Sync: true}, func(t *gpu.Thread) {
			i := t.GlobalID()
			self := uint32(0)
			if i < n {
				self = gpu.Ld(t, in, i)
			}
			t.SetSharedU32(t.Lane, self)
			t.Sync()
			for p := 1; p <= oracleLog; p++ {
				stride := 1 << (p - 1)
				cur := ((p - 1) & 1) * oracleBlock
				x := t.SharedU32(cur + t.Lane)
				if t.Lane >= stride {
					t.Exec(1)
					x += t.SharedU32(cur + t.Lane - stride)
				}
				t.SetSharedU32(oracleBlock-cur+t.Lane, x)
				t.Sync()
			}
			incl := t.SharedU32((oracleLog&1)*oracleBlock + t.Lane)
			if i < n {
				gpu.St(t, out, i, incl-self)
			}
			if t.Lane == oracleBlock-1 {
				gpu.St(t, blockTotals, t.Block, incl)
			}
		})
		carryBuf := gpu.Alloc[uint32](d, grid)
		defer carryBuf.Free()
		carries := carryBuf.Host()
		var carry uint64
		for b, tot := range blockTotals.Host() {
			carries[b] = uint32(carry)
			carry += uint64(tot)
		}
		carryBuf.CopyIn(carries)
		d.MustLaunch(gpu.LaunchConfig{Name: "scan_carry", Grid: grid, Block: oracleBlock}, func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			c := gpu.Ld(t, carryBuf, t.Block)
			t.Exec(1)
			gpu.St(t, out, i, gpu.Ld(t, out, i)+c)
		})
		return append(out.Host(), uint32(carry))
	}
}

func syncReduceMax(n int) func(*gpu.Device) []uint32 {
	return func(d *gpu.Device) []uint32 {
		in := oracleInput(d, n)
		const tile = oracleBlock * oracleReduceLoads
		grid := (n + tile - 1) / tile
		partial := gpu.Alloc[uint32](d, grid)
		defer partial.Free()
		d.MustLaunch(gpu.LaunchConfig{Name: "reduce_max_u32", Grid: grid, Block: oracleBlock, SharedU32: oracleBlock, Sync: true}, func(t *gpu.Thread) {
			v := uint32(0)
			for i := t.Block*tile + t.Lane; i < min(n, (t.Block+1)*tile); i += oracleBlock {
				t.Exec(1)
				v = max(v, gpu.Ld(t, in, i))
			}
			t.SetSharedU32(t.Lane, v)
			t.Sync()
			for stride := oracleBlock / 2; stride > 0; stride /= 2 {
				if t.Lane < stride {
					t.Exec(1)
					t.SetSharedU32(t.Lane, max(t.SharedU32(t.Lane), t.SharedU32(t.Lane+stride)))
				}
				t.Sync()
			}
			if t.Lane == 0 {
				gpu.St(t, partial, t.Block, t.SharedU32(0))
			}
		})
		return []uint32{slices.Max(partial.Host())}
	}
}
