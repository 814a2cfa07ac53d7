package gpu

import (
	"fmt"
	"testing"
)

// bitonicSteps lists the (k, j) compare-exchange steps of a 256-element
// bitonic network in order, and bitonicPhases counts the phases of
// bitonicKernel: a load, one per step, a store.
var (
	bitonicSteps = func() (s [][2]int) {
		for k := 2; k <= 256; k *= 2 {
			for j := k / 2; j > 0; j /= 2 {
				s = append(s, [2]int{k, j})
			}
		}
		return s
	}()
	bitonicPhases = len(bitonicSteps) + 2
)

// bitonicKernel is the shape of sortnet's batch_bitonic in a 256-lane
// block: the block's slice of buf into shared memory (padded with the
// largest key), the whole network one step a phase, each step a walk over
// its compare-exchange pairs, and the slice back. A step is
// CompareExchangeU32 when runs is set, and otherwise its per-access form,
// each pair's loads, Exec and stores metered one at a time.
func bitonicKernel(buf *Buffer[uint32], runs bool) BlockKernel {
	n := buf.Len()
	return func(lanes []Thread, p int) {
		switch {
		case p == 0:
			for l := range lanes {
				t := &lanes[l]
				v := ^uint32(0)
				if i := t.GlobalID(); i < n {
					v = Ld(t, buf, i)
				}
				t.SetSharedU32(l, v)
			}
		case p <= len(bitonicSteps):
			k, j := bitonicSteps[p-1][0], bitonicSteps[p-1][1]
			if runs {
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
		default:
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
		d.MustLaunchPhased(LaunchConfig{Name: "batch_bitonic", Grid: (m + 255) / 256, Block: 256, SharedU32: 256}, bitonicPhases, bitonicKernel(obs, false))
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
// the async and the phased (two-phase) form. ns/op divided by 16,384 is the
// host cost of stepping one lane. Run at -cpu 1,2 to see what the dispatch
// rule does with a second core.
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
			d.MustLaunchPhased(cfg, 2, func(lanes []Thread, p int) {
				if p == 1 {
					for l := range lanes {
						lanes[l].Retire()
					}
				}
			})
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
	kernel := bitonicKernel(buf, false)
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

// BenchmarkMeteredRun compares the per-access and the run form of the two
// access patterns the window pipeline's host time goes to, in host ns per
// metered global or shared access, inline over 64 blocks of 256 lanes:
// likelihood_comp's ten-wide table load and shared-memory accumulate (16 of
// them a lane), and the batch_bitonic network (a load phase, 36
// compare-exchange steps, a store phase).
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
	bitonic := func(runs bool) func() LaunchStats {
		cfg := LaunchConfig{Name: "batch_bitonic", Grid: grid, Block: primBlock, SharedU32: primBlock}
		kernel := bitonicKernel(buf, runs)
		return func() LaunchStats {
			copy(buf.Host(), keys)
			return d.MustLaunchPhased(cfg, bitonicPhases, kernel)
		}
	}
	for _, c := range []struct {
		name   string
		launch func() LaunchStats
	}{
		{"likelihood/per-access", likelihood(false)},
		{"likelihood/runs", likelihood(true)},
		{"bitonic/per-access", bitonic(false)},
		{"bitonic/runs", bitonic(true)},
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
// pass of a cheap load/compare/store kernel at three launch sizes, and
// bitonicKernel at three grids, run inline and forced onto two goroutines.
// Sizes are in lane invocations, grid x block x phases, the unit of the
// rule. Meaningful at -cpu 2 or more.
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
			b.Run(fmt.Sprintf("async/lanes=%dK/workers=%d", lanes>>10, workers), func(b *testing.B) {
				cfg := LaunchConfig{Name: "compare_exchange", Grid: lanes / primBlock, Block: primBlock}
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
					d.MustLaunchPhased(cfg, bitonicPhases, bitonicKernel(buf, false))
				})
			})
		}
	}
}
