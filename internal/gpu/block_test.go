package gpu

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"
)

// CompareExchangeU32 is one (k, j) step of a bitonic network over the
// block's shared uint32 array, one phase of a BlockKernel: every aligned
// size-element sub-array ends ascending. Lane l with l&j == 0 and l+j <
// len(lanes) runs a, b := t.SharedU32(l), t.SharedU32(l+j); t.Exec(2), and
// if (a > b) == (l&(size-1)&k == 0) stores b at l and a at l+j. Only instr,
// which the warp maximum reads, is charged per lane; the sum-only shared
// loads and stores are charged to lanes[0] once. It is the per-step network
// BitonicNetworkU32 fuses, kept here as its oracle.
func CompareExchangeU32(lanes []Thread, k, j, size int) {
	n := len(lanes)
	sh := lanes[0].block.sharedU32
	var pairs, swaps int64
	for base := 0; base < n; base += 2 * j {
		for l := base; l < min(base+j, n-j); l++ {
			pairs++
			a, b := sh[l], sh[l+j]
			if (a > b) == (l&(size-1)&k == 0) {
				sh[l], sh[l+j] = b, a
				lanes[l].instr += 6
				swaps++
			} else {
				lanes[l].instr += 4
			}
		}
	}
	lanes[0].sld += 2 * pairs
	lanes[0].sst += 2 * swaps
}

// networkSteps returns the (k, j) steps of the bitonic network over size
// elements in order: k ascends 2, 4, ..., size, and within each k the
// stride j halves from k/2 down to 1.
func networkSteps(size int) (s [][2]int) {
	for k := 2; k <= size; k *= 2 {
		for j := k / 2; j > 0; j /= 2 {
			s = append(s, [2]int{k, j})
		}
	}
	return s
}

// networkCase is one launch in the shape of sortnet's two network kernels:
// batch_bitonic (sizes nil: every block sorts its lanes' keys in
// class-size segments, the tail of the last block padded) or
// bitonic_noneq (block b sorts one array of sizes[b] keys padded to its
// own power of two; the lanes past the pad retire at the load phase).
type networkCase struct {
	block, class int
	sizes        []int // noneq: array size of each block
	keys         []uint32
}

func (c *networkCase) grid() int {
	if c.sizes != nil {
		return len(c.sizes)
	}
	return (len(c.keys) + c.block - 1) / c.block
}

// bounds returns block b's slice of the keys and the network it runs: the
// padded segment size and the lanes that sort.
func (c *networkCase) bounds(b int) (off, size, pad, live int) {
	if c.sizes == nil {
		off = b * c.block
		return off, min(c.block, len(c.keys)-off), c.class, c.block
	}
	for _, s := range c.sizes[:b] {
		off += s
	}
	pad = max(2, 1<<bits.Len(uint(c.sizes[b]-1)))
	return off, c.sizes[b], pad, pad
}

// run launches the case per step (the oracle: a phase per (k, j) step,
// every access on its own lane) or fused (wide loads and stores, one
// BitonicNetworkU32 call), and returns the launch and the sorted keys.
func (c *networkCase) run(t *testing.T, d *Device, fused bool) (LaunchStats, []uint32) {
	buf := Alloc[uint32](d, len(c.keys))
	defer buf.Free()
	copy(buf.Host(), c.keys)
	steps := networkSteps(c.class)
	if c.sizes != nil {
		steps = networkSteps(256)
	}
	phases := len(steps) + 2
	cfg := LaunchConfig{Name: "network", Grid: c.grid(), Block: c.block, SharedU32: c.block}
	ls := d.MustLaunchPhased(cfg, phases, func(b *Block, p int) {
		off, size, pad, live := c.bounds(b.Index)
		switch {
		case p == 0:
			b.Retire(live, b.Dim-live)
			if fused {
				b.SetSharedU32Wide(0, 0, LdWide(b, buf, 0, off, size))
				for l := size; l < live; l++ {
					b.SetSharedU32Wide(l, l, []uint32{^uint32(0)})
				}
				return
			}
			lanes := b.Lanes()
			for l := range lanes[:live] {
				v := ^uint32(0)
				if l < size {
					v = Ld(&lanes[l], buf, off+l)
				}
				lanes[l].SetSharedU32(l, v)
			}
		case p-1 >= len(networkSteps(pad)):
			if fused {
				StWide(b, buf, 0, off, b.SharedU32Wide(0, 0, size))
			} else {
				lanes := b.Lanes()
				for l := range lanes[:size] {
					St(&lanes[l], buf, off+l, lanes[l].SharedU32(l))
				}
			}
			b.Retire(0, live)
		case fused:
			if p == 1 {
				BitonicNetworkU32(b, live, pad)
			} else {
				t.Errorf("fused kernel called at phase %d, inside its network", p)
			}
		default:
			kj := steps[p-1]
			CompareExchangeU32(b.Lanes()[:live], kj[0], kj[1], pad)
		}
	})
	return ls, append([]uint32(nil), buf.Host()...)
}

// FuzzBitonicNetwork holds BitonicNetworkU32, and the wide loads and stores
// around it, to the per-step network it fuses: over class sizes 2 to 256,
// blocks of 32 to 256 lanes with a padded tail, and non-equal-size arrays
// one a block, each padded to its own power of two with the lanes past it
// retired. Both forms must give the same LaunchStats (every counter, warp
// instructions, the coalescing factor) and the same sorted keys.
func FuzzBitonicNetwork(f *testing.F) {
	f.Add(uint8(3), uint8(0), uint16(24), false, uint32(1), uint16(1000))
	f.Add(uint8(3), uint8(3), uint16(320), false, uint32(2), uint16(7))
	f.Add(uint8(8), uint8(3), uint16(1024), false, uint32(3), uint16(65535))
	f.Add(uint8(1), uint8(1), uint16(65), false, uint32(4), uint16(2))
	f.Add(uint8(8), uint8(3), uint16(9), true, uint32(5), uint16(1000))
	f.Add(uint8(8), uint8(3), uint16(3), true, uint32(6), uint16(1))
	f.Fuzz(func(t *testing.T, classExp, blockExp uint8, n uint16, noneq bool, seed uint32, keyRange uint16) {
		x := seed | 1
		next := func() uint32 {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			return x
		}
		c := networkCase{class: 1 << (1 + classExp%8), block: 32 << (blockExp % 4)}
		c.block = max(c.block, c.class)
		total := 1 + int(n)%4096
		if noneq {
			// One array of 2 to 256 keys a block, at most 16 blocks.
			c.block, total = 256, 0
			for range 1 + int(n)%16 {
				c.sizes = append(c.sizes, 2+int(next()%255))
				total += c.sizes[len(c.sizes)-1]
			}
		}
		for range total {
			c.keys = append(c.keys, next()%(uint32(keyRange)+1))
		}
		want, wantKeys := c.run(t, NewDevice(M2050()), false)
		got, gotKeys := c.run(t, NewDevice(M2050()), true)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("fused network launch differs from the per-step network:\n got %+v\nwant %+v", got, want)
		}
		if !reflect.DeepEqual(gotKeys, wantKeys) {
			t.Errorf("fused network sorted differently from the per-step network")
		}
	})
}

// wideCase is one kernel written twice: a block at a time through the
// block-wide primitives, and as the per-lane loops those primitives
// document, run through the lane cursor. A case with phases runs both
// forms phased instead: wide once per block and phase, lane on every live
// lane of b.Lanes().
type wideCase struct {
	name               string
	grid, block, share int
	phases             int
	wide               func(b *Block, e *oracleEnv)
	lane               func(t *Thread, e *oracleEnv)
}

var wideCases = []wideCase{
	{
		// Lane ranges that start past lane 0 and stop short of the block,
		// a different Exec per block.
		name: "wide loads and stores", grid: 3, block: 64,
		wide: func(b *Block, e *oracleEnv) {
			l0, n, i0 := b.Index%5, b.Dim-b.Index%5-3*b.Index, b.Index*b.Dim
			var v [64]uint32
			for k, x := range LdWide(b, e.in, l0, i0+l0, n) {
				v[k] = 3*x + 1
			}
			b.Exec(l0, n, b.Index+1)
			StWide(b, e.out, l0, i0+l0, v[:n])
		},
		lane: func(t *Thread, e *oracleEnv) {
			l0, n, i := t.Block%5, t.BlockDim-t.Block%5-3*t.Block, t.GlobalID()
			if t.Lane < l0 || t.Lane >= l0+n {
				return
			}
			x := Ld(t, e.in, i)
			t.Exec(t.Block + 1)
			St(t, e.out, i, 3*x+1)
		},
	},
	{
		// A broadcast load on all lanes but two, then a scattered gather
		// and store on every third lane.
		name: "broadcast, gather and scatter", grid: 3, block: 64,
		wide: func(b *Block, e *oracleEnv) {
			c := LdBcast(b, e.in, 2, b.Dim-2, b.Index)
			for l := 0; l < b.Dim; l += 3 {
				x := LdLane(b, e.in, l, (l*37+b.Index*11)%e.in.Len())
				if l < 2 {
					x -= c
				}
				StLane(b, e.out, l, b.Index*b.Dim+l, x+c)
			}
		},
		lane: func(t *Thread, e *oracleEnv) {
			var c uint32
			if t.Lane >= 2 {
				c = Ld(t, e.in, t.Block)
			}
			if t.Lane%3 == 0 {
				St(t, e.out, t.GlobalID(), Ld(t, e.in, (t.Lane*37+t.Block*11)%e.in.Len())+c)
			}
		},
	},
	{
		// Both blocks exchange the same values, so the memory does not
		// depend on which block lands last.
		name: "atomic exchange", grid: 2, block: 32,
		wide: func(b *Block, e *oracleEnv) {
			for l := 0; l < b.Dim; l += 2 {
				AtomicExchLaneU32(b, e.hist, l, l%8, uint32(l))
			}
		},
		lane: func(t *Thread, e *oracleEnv) {
			if t.Lane%2 == 0 {
				AtomicExchU32(t, e.hist, t.Lane%8, uint32(t.Lane))
			}
		},
	},
	{
		// Every lane but lane 0 stages its element in shared memory; all
		// read word 0, then their own word back.
		name: "shared memory", grid: 2, block: 64, share: 64,
		wide: func(b *Block, e *oracleEnv) {
			i0, n := b.Index*b.Dim, b.Dim-1
			b.SetSharedU32Wide(1, 1, LdWide(b, e.in, 1, i0+1, n))
			c := b.SharedU32Bcast(0, b.Dim, 0)
			var v [64]uint32
			for k, x := range b.SharedU32Wide(1, 1, n) {
				v[k] = x + c
			}
			StWide(b, e.out, 1, i0+1, v[:n])
		},
		lane: func(t *Thread, e *oracleEnv) {
			if t.Lane > 0 {
				t.SetSharedU32(t.Lane, Ld(t, e.in, t.GlobalID()))
			}
			c := t.SharedU32(0)
			if t.Lane > 0 {
				St(t, e.out, t.GlobalID(), t.SharedU32(t.Lane)+c)
			}
		},
	},
	{
		// Lane 0 fills its coalescing sample past the cap before the
		// block-wide load and store.
		name: "sample cap", grid: 2, block: 32,
		wide: func(b *Block, e *oracleEnv) {
			for r := 0; r < sampleCap+100; r++ {
				LdLane(b, e.in, 0, r%e.in.Len())
			}
			i0 := b.Index * b.Dim
			StWide(b, e.out, 0, i0, LdWide(b, e.in, 0, i0, b.Dim))
		},
		lane: func(t *Thread, e *oracleEnv) {
			for r := 0; t.Lane == 0 && r < sampleCap+100; r++ {
				Ld(t, e.in, r%e.in.Len())
			}
			St(t, e.out, t.GlobalID(), Ld(t, e.in, t.GlobalID()))
		},
	},
	{
		// Block.Retire against Thread.Retire lane by lane: the top lanes
		// retire at the load, before any barrier, except in block 1; at
		// phase 1 the bottom lanes retire (in block 1 the first lanes of
		// the block to go), and again a range partly retired; block 2
		// retires every lane left at phase 1, the others store from the
		// lanes still live at phase 2, which pay for the last barrier.
		name: "retire", grid: 3, block: 64, share: 64, phases: 3,
		wide: func(b *Block, e *oracleEnv) {
			i0 := b.Index * b.Dim
			switch b.rt.phase {
			case 0:
				b.SetSharedU32Wide(0, 0, LdWide(b, e.in, 0, i0, b.Dim))
				if b.Index != 1 {
					b.Retire(48, 16)
				}
			case 1:
				b.Retire(0, 16)
				b.Retire(56, 8)
				if b.Index == 2 {
					b.Retire(0, b.Dim)
				}
			default:
				n := 32
				if b.Index == 1 {
					n = 40
				}
				StWide(b, e.out, 16, i0+16, b.SharedU32Wide(16, 16, n))
			}
		},
		lane: func(t *Thread, e *oracleEnv) {
			switch t.block.phase {
			case 0:
				t.SetSharedU32(t.Lane, Ld(t, e.in, t.GlobalID()))
				if t.Lane >= 48 && t.Block != 1 {
					t.Retire()
				}
			case 1:
				if t.Lane < 16 || t.Lane >= 56 || t.Block == 2 {
					t.Retire()
				}
			default:
				St(t, e.out, t.GlobalID(), t.SharedU32(t.Lane))
			}
		},
	},
}

// TestBlockPrimitivesMatchPerLane holds each block-wide primitive to the
// per-lane loop it documents: the same kernel written with the primitives
// (LaunchWide, inline and over three host goroutines) and lane by lane
// (Launch; Block.Retire's case runs both forms phased) must give the same
// LaunchStats — every counter, the warp instructions, the coalescing
// factor — the same device totals and memory, and, inline, the same
// coalescing sample of block 0, lane by lane and access by access.
// BitonicNetworkU32 is held to its per-step form by FuzzBitonicNetwork.
func TestBlockPrimitivesMatchPerLane(t *testing.T) {
	type result struct {
		launch  LaunchStats
		totals  Stats
		mem     []uint32
		samples [][]int64
	}
	for _, c := range wideCases {
		t.Run(c.name, func(t *testing.T) {
			run := func(workers int, wide bool) result {
				d := NewDevice(M2050())
				d.forceWorkers = workers
				e := newOracleEnv(t, d, 4*c.grid*c.block)
				defer e.free()
				cfg := LaunchConfig{Name: c.name, Grid: c.grid, Block: c.block, SharedU32: c.share}
				var r result
				switch {
				case c.phases > 0 && wide:
					r.launch = d.MustLaunchPhased(cfg, c.phases, func(b *Block, _ int) { c.wide(b, e) })
				case c.phases > 0:
					r.launch = d.MustLaunchPhased(cfg, c.phases, func(b *Block, _ int) {
						lanes := b.Lanes()
						for l := range lanes {
							if !lanes[l].Retired() {
								c.lane(&lanes[l], e)
							}
						}
					})
				case wide:
					r.launch = d.MustLaunchWide(cfg, func(b *Block) { c.wide(b, e) })
				default:
					r.launch = d.MustLaunch(cfg, func(t *Thread) { c.lane(t, e) })
				}
				r.totals = d.Stats()
				r.mem = append(append([]uint32(nil), e.out.Host()...), e.hist.Host()...)
				if workers == 1 {
					for _, s := range d.samples[0][:c.block] {
						r.samples = append(r.samples, append([]int64(nil), s...))
					}
				}
				return r
			}
			want := run(1, false)
			if want.totals.GlobalLoads+want.totals.GlobalStores == 0 || len(slices.Concat(want.samples...)) == 0 {
				t.Fatalf("per-lane form metered nothing: %+v", want.totals)
			}
			for _, workers := range []int{1, 3} {
				got := run(workers, true)
				if got.launch != want.launch {
					t.Errorf("%d workers: launch differs from the per-lane form:\n got %+v\nwant %+v", workers, got.launch, want.launch)
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

// TestNetworkTables pins the flat tables BitonicNetworkU32 runs: for each
// size, the (k, j) steps of the per-step network in order — 36 for 256
// elements — each contributing its size/2 compare-exchanges, lane l with
// l&j == 0 leading the pair (l, l+j), ascending when l&k == 0; and each
// lane's unconditional cost, 4 instructions a pair it leads and one
// barrier between consecutive steps.
func TestNetworkTables(t *testing.T) {
	if n := len(networkSteps(256)); n != 36 {
		t.Fatalf("%d steps for the 256-element network, want 36", n)
	}
	for e := 1; e <= 8; e++ {
		size := 1 << e
		steps := networkSteps(size)
		var pairs []netPair
		cost := make([]int64, size)
		for _, kj := range steps {
			for l := 0; l < size; l++ {
				if l&kj[1] == 0 {
					pairs = append(pairs, netPair{uint8(l), uint8(l + kj[1]), l&kj[0] == 0})
					cost[l] += 4
				}
			}
		}
		net := &networks[e]
		if net.steps != len(steps) || NetworkSteps(size) != len(steps) {
			t.Errorf("size %d: %d steps, NetworkSteps says %d; want %d", size, net.steps, NetworkSteps(size), len(steps))
		}
		if len(net.pairs) != size/2*len(steps) || !slices.Equal(net.pairs, pairs) {
			t.Errorf("size %d: %d pairs, want %d in step order", size, len(net.pairs), size/2*len(steps))
		}
		if !slices.Equal(net.cost, cost) {
			t.Errorf("size %d: lane costs %v, want %v", size, net.cost, cost)
		}
	}
}
