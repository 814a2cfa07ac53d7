package gpu

import (
	"fmt"
	"testing"
)

// bitonicSteps lists the (k, j) compare-exchange steps of a 256-element
// bitonic network in order, and bitonicPhases counts the phases of
// bitonicKernel: a load, one per step, a store.
var (
	bitonicSteps  = networkSteps(256)
	bitonicPhases = len(bitonicSteps) + 2
)

// The three forms of bitonicKernel's network and its loads and stores.
const (
	perAccess = iota // every access metered on its own lane, a phase a step
	perStep          // CompareExchangeU32, a phase a step
	fused            // wide loads and stores, one BitonicNetworkU32 call
)

// bitonicKernel is the shape of sortnet's batch_bitonic in a 256-lane
// block: the block's slice of buf into shared memory (padded with the
// largest key), the whole network, and the slice back. The network runs in
// form: per access, each pair's loads, Exec and stores metered one at a
// time; per step, CompareExchangeU32; or fused, one BitonicNetworkU32 call
// after wide loads and before wide stores.
func bitonicKernel(buf *Buffer[uint32], form int) BlockKernel {
	n := buf.Len()
	return func(b *Block, p int) {
		switch {
		case p == 0 && form == fused:
			i0 := b.Index * b.Dim
			m := min(b.Dim, n-i0)
			b.SetSharedU32Wide(0, 0, LdWide(b, buf, 0, i0, m))
			for l := m; l < b.Dim; l++ {
				b.SetSharedU32Wide(l, l, []uint32{^uint32(0)})
			}
		case p == 0:
			lanes := b.Lanes()
			for l := range lanes {
				t := &lanes[l]
				v := ^uint32(0)
				if i := t.GlobalID(); i < n {
					v = Ld(t, buf, i)
				}
				t.SetSharedU32(l, v)
			}
		case p == 1 && form == fused:
			BitonicNetworkU32(b, b.Dim, b.Dim)
		case p <= len(bitonicSteps):
			lanes := b.Lanes()
			k, j := bitonicSteps[p-1][0], bitonicSteps[p-1][1]
			if form == perStep {
				CompareExchangeU32(lanes, k, j, len(lanes))
				return
			}
			for base := 0; base < len(lanes); base += 2 * j {
				for l := base; l < base+j; l++ {
					t := &lanes[l]
					a, b := t.SharedU32(l), t.SharedU32(l+j)
					t.Exec(2)
					if (a > b) == (l&k == 0) {
						t.SetSharedU32(l, b)
						t.SetSharedU32(l+j, a)
					}
				}
			}
		case form == fused:
			i0 := b.Index * b.Dim
			StWide(b, buf, 0, i0, b.SharedU32Wide(0, 0, min(b.Dim, n-i0)))
			b.Retire(0, b.Dim)
		default:
			lanes := b.Lanes()
			for l := range lanes {
				t := &lanes[l]
				if i := t.GlobalID(); i < n {
					St(t, buf, i, t.SharedU32(l))
				}
				t.Retire()
			}
		}
	}
}

// BenchmarkRunWindowSimKernels drives the simulator with one GPU window's
// worth of kernel traffic — an atomic counting scatter over the
// observations, a reduce, an exclusive scan over the sites, and a phased
// shared-memory bitonic pass — isolating the simulator's own per-launch
// cost from the pipeline around it. One op is one synthetic window
// (windowSites sites, obsPerSite observations each), so sites/s here is
// the ceiling the simulator imposes on BenchmarkRunWindowGPU, and
// allocs/op pins the launch/buffer recycling of the device itself.
func BenchmarkRunWindowSimKernels(b *testing.B) {
	const (
		windowSites = 8000
		obsPerSite  = 10
		m           = windowSites * obsPerSite
	)
	d := NewDevice(M2050())

	window := func() {
		obs := Alloc[uint32](d, m)
		siteCount := Alloc[uint32](d, windowSites)
		bounds := Alloc[uint32](d, windowSites)
		host := obs.Host()
		for i := range host {
			host[i] = uint32(i % windowSites)
		}
		obs.CopyIn(host)
		d.MustLaunch(LaunchConfig{Name: "count_sites", Grid: (m + 255) / 256, Block: 256}, func(t *Thread) {
			i := t.GlobalID()
			if i >= m {
				return
			}
			site := int(Ld(t, obs, i))
			AtomicAddU32(t, siteCount, site, 1)
		})
		ReduceU32(d, siteCount)
		ExclusiveScanU32(d, siteCount, bounds)
		// One full shared-memory bitonic network per 256-lane block, the
		// phased form the sort pipeline uses.
		d.MustLaunchPhased(LaunchConfig{Name: "batch_bitonic", Grid: (m + 255) / 256, Block: 256, SharedU32: 256}, bitonicPhases, bitonicKernel(obs, fused))
		bounds.Free()
		siteCount.Free()
		obs.Free()
	}

	window() // warm the scratch and buffer free-lists
	sites := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		window()
		sites += windowSites
	}
	b.ReportMetric(float64(sites)/b.Elapsed().Seconds(), "sites/s")
}

// BenchmarkLaunchOverhead measures what the simulator itself charges the
// host for a launch whose kernels do nothing: 64 blocks of 256 lanes, in
// the async, the phased (two-phase) and the wide form. ns/op divided by
// 16,384 is the host cost of stepping one lane. Run at -cpu 1,2 to see what
// the dispatch rule does with a second core.
func BenchmarkLaunchOverhead(b *testing.B) {
	cfg := LaunchConfig{Name: "empty", Grid: 64, Block: 256}
	b.Run("async", func(b *testing.B) {
		d := NewDevice(M2050())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.MustLaunch(cfg, func(t *Thread) {})
		}
	})
	b.Run("phased", func(b *testing.B) {
		d := NewDevice(M2050())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.MustLaunchPhased(cfg, 2, func(b *Block, p int) {
				if p == 1 {
					b.Retire(0, b.Dim)
				}
			})
		}
	})
	b.Run("wide", func(b *testing.B) {
		d := NewDevice(M2050())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			d.MustLaunchWide(cfg, func(*Block) {})
		}
	})
}

// BenchmarkSortU32 sorts 32 K keys with the device-wide bitonic network:
// 120 bitonic_global launches of 64 blocks each, what the RLE-DICT encoder
// of the compressed output path pays for the dictionary of a column whose
// values range too widely for a presence table.
func BenchmarkSortU32(b *testing.B) {
	const n = 32 << 10
	d := NewDevice(M2050())
	keys := xorshiftKeys(n)
	buf := Alloc[uint32](d, n)
	defer buf.Free()
	b.ReportAllocs()
	b.SetBytes(4 * n)
	for i := 0; i < b.N; i++ {
		copy(buf.Host(), keys)
		SortU32(d, buf)
	}
}

// BenchmarkPhasedLanePhase measures what the phased runner costs the host
// per lane and phase: bitonicKernel, batch_bitonic's shape, over 64 blocks
// of 256 lanes, inline. ns/lane-phase is the elapsed time over every lane
// of every phase of every launch — the unit DESIGN.md quotes the phased
// runner in.
func BenchmarkPhasedLanePhase(b *testing.B) {
	const grid = 64
	d := NewDevice(M2050())
	d.forceWorkers = 1
	buf := Alloc[uint32](d, grid*primBlock)
	defer buf.Free()
	keys := xorshiftKeys(buf.Len())
	cfg := LaunchConfig{Name: "batch_bitonic", Grid: grid, Block: primBlock, SharedU32: primBlock}
	kernel := bitonicKernel(buf, perAccess)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf.Host(), keys)
		d.MustLaunchPhased(cfg, bitonicPhases, kernel)
		if i%64 == 63 {
			d.ResetStats() // keep the launch log from growing
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*grid*primBlock*bitonicPhases), "ns/lane-phase")
}

// BenchmarkMeteredRun compares the per-access form of the access patterns
// the window pipeline's host time goes to with the metered forms that
// charge them in bulk, in host ns per metered global or shared access,
// inline over 64 blocks of 256 lanes: likelihood_comp's ten-wide table load
// and shared-memory accumulate (16 of them a lane; per access against
// runs), the batch_bitonic network (a load phase, 36 compare-exchange
// steps, a store phase; per access, per step with CompareExchangeU32, and
// fused with wide loads and stores), and rle_flag's one-element-per-lane
// compare of neighbours (through the lane cursor against a block at a
// time).
func BenchmarkMeteredRun(b *testing.B) {
	const grid, obs, w = 64, 16, 10
	d := NewDevice(M2050())
	d.forceWorkers = 1
	table := Alloc[float64](d, 4096)
	defer table.Free()
	keys := xorshiftKeys(grid * primBlock)
	buf := Alloc[uint32](d, len(keys))
	defer buf.Free()
	likelihood := func(runs bool) func() LaunchStats {
		cfg := LaunchConfig{Name: "likelihood_comp", Grid: grid, Block: primBlock, SharedF64: primBlock * w}
		return func() LaunchStats {
			return d.MustLaunch(cfg, func(t *Thread) {
				sh := t.Lane * w
				for o := 0; o < obs; o++ {
					idx := (t.GlobalID()*7 + o*131) % (table.Len() - w)
					if runs {
						t.AddSharedF64Run(sh, LdRun(t, table, idx, w))
						continue
					}
					for r := 0; r < w; r++ {
						t.AddSharedF64(sh+r, Ld(t, table, idx+r))
					}
				}
			})
		}
	}
	bitonic := func(form int) func() LaunchStats {
		cfg := LaunchConfig{Name: "batch_bitonic", Grid: grid, Block: primBlock, SharedU32: primBlock}
		kernel := bitonicKernel(buf, form)
		return func() LaunchStats {
			copy(buf.Host(), keys)
			return d.MustLaunchPhased(cfg, bitonicPhases, kernel)
		}
	}
	flags := Alloc[uint32](d, len(keys))
	defer flags.Free()
	elementwise := func(wide bool) func() LaunchStats {
		cfg := LaunchConfig{Name: "rle_flag", Grid: grid, Block: primBlock}
		if !wide {
			return func() LaunchStats {
				return d.MustLaunch(cfg, func(t *Thread) {
					i, f := t.GlobalID(), uint32(1)
					if i > 0 {
						t.Exec(1)
						if Ld(t, buf, i-1) == Ld(t, buf, i) {
							f = 0
						}
					}
					St(t, flags, i, f)
				})
			}
		}
		return func() LaunchStats {
			return d.MustLaunchWide(cfg, func(b *Block) {
				i0, l0 := b.Index*primBlock, 0
				if i0 == 0 {
					l0 = 1
				}
				b.Exec(l0, primBlock-l0, 1)
				prev := LdWide(b, buf, l0, i0+l0-1, primBlock-l0)
				var f [primBlock]uint32
				f[0] = uint32(l0)
				for k, x := range LdWide(b, buf, l0, i0+l0, primBlock-l0) {
					if x != prev[k] {
						f[l0+k] = 1
					}
				}
				StWide(b, flags, 0, i0, f[:])
			})
		}
	}
	for _, c := range []struct {
		name   string
		launch func() LaunchStats
	}{
		{"likelihood/per-access", likelihood(false)},
		{"likelihood/runs", likelihood(true)},
		{"bitonic/per-access", bitonic(perAccess)},
		{"bitonic/per-step", bitonic(perStep)},
		{"bitonic/fused", bitonic(fused)},
		{"elementwise/cursor", elementwise(false)},
		{"elementwise/wide", elementwise(true)},
	} {
		b.Run(c.name, func(b *testing.B) {
			var accesses int64
			for i := 0; i < b.N; i++ {
				s := c.launch().Stats
				accesses += s.GlobalLoads + s.GlobalStores + s.SharedLoads + s.SharedStores
				if i%64 == 63 {
					d.ResetStats() // keep the launch log from growing
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(accesses), "ns/access")
		})
	}
}

// xorshiftKeys returns n pseudo-random keys.
func xorshiftKeys(n int) []uint32 {
	keys := make([]uint32, n)
	x := uint32(2463534242)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		keys[i] = x
	}
	return keys
}

// BenchmarkFanoutBreakEven is the measurement behind minFanoutLanes: one
// pass of a cheap load/compare/store kernel at three launch sizes, through
// the lane cursor and a block at a time, and the fused bitonicKernel at
// three grids, run inline and forced onto two goroutines. Sizes are in
// lane invocations, grid x block x phases, the unit of the rule; a fused
// network counts a phase per step. Meaningful at -cpu 2 or more.
func BenchmarkFanoutBreakEven(b *testing.B) {
	run := func(b *testing.B, workers, n int, launch func(d *Device, buf *Buffer[uint32])) {
		d := NewDevice(M2050())
		d.forceWorkers = workers
		buf := Alloc[uint32](d, n)
		defer buf.Free()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			launch(d, buf)
			if i%64 == 63 {
				d.ResetStats() // keep the launch log from growing
			}
		}
	}
	for _, lanes := range []int{16 << 10, 64 << 10, 256 << 10} {
		for _, workers := range []int{1, 2} {
			cfg := LaunchConfig{Name: "compare_exchange", Grid: lanes / primBlock, Block: primBlock}
			b.Run(fmt.Sprintf("async/lanes=%dK/workers=%d", lanes>>10, workers), func(b *testing.B) {
				run(b, workers, 2*lanes, func(d *Device, buf *Buffer[uint32]) {
					d.MustLaunch(cfg, func(t *Thread) {
						i := 2 * t.GlobalID()
						t.Exec(5)
						if x, y := Ld(t, buf, i), Ld(t, buf, i+1); x > y {
							St(t, buf, i, y)
							St(t, buf, i+1, x)
						}
					})
				})
			})
			b.Run(fmt.Sprintf("wide/lanes=%dK/workers=%d", lanes>>10, workers), func(b *testing.B) {
				run(b, workers, 2*lanes, func(d *Device, buf *Buffer[uint32]) {
					d.MustLaunchWide(cfg, func(b *Block) {
						i0 := 2 * b.Index * primBlock
						b.Exec(0, primBlock, 5)
						for l := range primBlock {
							i := i0 + 2*l
							if x, y := LdLane(b, buf, l, i), LdLane(b, buf, l, i+1); x > y {
								StLane(b, buf, l, i, y)
								StLane(b, buf, l, i+1, x)
							}
						}
					})
				})
			})
		}
	}
	for _, grid := range []int{2, 8, 32} {
		for _, workers := range []int{1, 2} {
			lanes := grid * primBlock * bitonicPhases
			b.Run(fmt.Sprintf("phased/lanes=%dK/workers=%d", lanes>>10, workers), func(b *testing.B) {
				cfg := LaunchConfig{Name: "batch_bitonic", Grid: grid, Block: primBlock, SharedU32: primBlock}
				keys := xorshiftKeys(grid * primBlock)
				run(b, workers, len(keys), func(d *Device, buf *Buffer[uint32]) {
					copy(buf.Host(), keys)
					d.MustLaunchPhased(cfg, bitonicPhases, bitonicKernel(buf, fused))
				})
			})
		}
	}
}
