package gpu

import (
	"fmt"
	"math/bits"
	"testing"
)

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
		merges := 0
		for k := 2; k <= 256; k *= 2 {
			merges += bits.Len(uint(k)) - 1
		}
		d.MustLaunchPhased(LaunchConfig{Name: "batch_bitonic", Grid: (m + 255) / 256, Block: 256, SharedU32: 256}, merges+2, func(t *Thread, p int) bool {
			switch {
			case p == 0:
				v := ^uint32(0)
				if i := t.GlobalID(); i < m {
					v = Ld(t, obs, i)
				}
				t.SetSharedU32(t.Lane, v)
				return true
			case p <= merges:
				// Walk the (k, j) network in order.
				q := p - 1
				k := 2
				for {
					steps := bits.Len(uint(k)) - 1
					if q < steps {
						break
					}
					q -= steps
					k *= 2
				}
				j := k >> (q + 1)
				partner := t.Lane ^ j
				if partner > t.Lane {
					a := t.SharedU32(t.Lane)
					bv := t.SharedU32(partner)
					t.Exec(2)
					if (a > bv) == (t.Lane&k == 0) {
						t.SetSharedU32(t.Lane, bv)
						t.SetSharedU32(partner, a)
					}
				}
				return true
			default:
				if i := t.GlobalID(); i < m {
					St(t, obs, i, t.SharedU32(t.Lane))
				}
				return false
			}
		})
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
			d.MustLaunchPhased(cfg, 2, func(t *Thread, p int) bool { return p == 0 })
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
	keys := make([]uint32, n)
	x := uint32(2463534242)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		keys[i] = x
	}
	buf := Alloc[uint32](d, n)
	defer buf.Free()
	b.ReportAllocs()
	b.SetBytes(4 * n)
	for i := 0; i < b.N; i++ {
		copy(buf.Host(), keys)
		SortU32(d, buf)
	}
}

// BenchmarkFanoutBreakEven is the measurement behind minFanoutLanes: one
// pass of a cheap load/compare/store kernel at three launch sizes, run
// inline and forced onto two goroutines. Meaningful at -cpu 2 or more.
func BenchmarkFanoutBreakEven(b *testing.B) {
	for _, lanes := range []int{16 << 10, 64 << 10, 256 << 10} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("lanes=%dK/workers=%d", lanes>>10, workers), func(b *testing.B) {
				d := NewDevice(M2050())
				d.forceWorkers = workers
				buf := Alloc[uint32](d, 2*lanes)
				defer buf.Free()
				cfg := LaunchConfig{Name: "compare_exchange", Grid: lanes / primBlock, Block: primBlock}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.MustLaunch(cfg, func(t *Thread) {
						i := 2 * t.GlobalID()
						t.Exec(5)
						if x, y := Ld(t, buf, i), Ld(t, buf, i+1); x > y {
							St(t, buf, i, y)
							St(t, buf, i+1, x)
						}
					})
					if i%64 == 63 {
						d.ResetStats() // keep the launch log from growing
					}
				}
			})
		}
	}
}
