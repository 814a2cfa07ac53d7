package compress

import (
	"fmt"
	"math/rand"
	"testing"

	"gsnp/internal/gpu"
)

func benchColumn(n int) []uint32 {
	return qualityColumn(n, 42)
}

func BenchmarkRLEEncode(b *testing.B) {
	vals := benchColumn(100000)
	b.SetBytes(int64(len(vals) * 4))
	for i := 0; i < b.N; i++ {
		RLEEncode(vals)
	}
}

func BenchmarkRLEDictEncode(b *testing.B) {
	vals := benchColumn(100000)
	b.SetBytes(int64(len(vals) * 4))
	for i := 0; i < b.N; i++ {
		RLEDictEncode(vals)
	}
}

func BenchmarkRLEDictDecode(b *testing.B) {
	vals := benchColumn(100000)
	buf := RLEDictEncode(vals)
	b.SetBytes(int64(len(vals) * 4))
	for i := 0; i < b.N; i++ {
		if _, _, err := RLEDictDecode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRLEDictEncodeGPU(b *testing.B) {
	d := gpu.NewDevice(gpu.M2050())
	vals := benchColumn(100000)
	b.SetBytes(int64(len(vals) * 4))
	for i := 0; i < b.N; i++ {
		RLEDictEncodeGPU(d, vals)
	}
}

// BenchmarkDictBuild is the measurement behind dictPresenceRangePerKey: the
// two dictionary builds over 32 K keys (a column of the bench's chr1 window
// has 18 K to 43 K runs) drawn from a small, a moderate and a wide value
// range, and from the two ranges around the rule: 4 and 8 times the keys.
func BenchmarkDictBuild(b *testing.B) {
	const n = 32 << 10
	for _, limit := range []int{64, 10_000, 4 * n, 8 * n, 1_000_000} {
		rng := rand.New(rand.NewSource(int64(limit)))
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(rng.Intn(limit))
		}
		vals[0] = uint32(limit - 1)
		d := gpu.NewDevice(gpu.M2050())
		keys := gpu.Alloc[uint32](d, n)
		keys.CopyIn(vals)
		builds := []struct {
			name  string
			build func() *gpu.Buffer[uint32]
		}{
			{"sort_unique", func() *gpu.Buffer[uint32] { return sortUniqueGPU(d, keys) }},
			{"presence", func() *gpu.Buffer[uint32] {
				return gpu.DistinctU32(d, keys, int(gpu.ReduceMaxU32(d, keys))+1)
			}},
		}
		for _, bb := range builds {
			b.Run(fmt.Sprintf("%s/range=%d", bb.name, limit), func(b *testing.B) {
				var sim float64
				for i := 0; i < b.N; i++ {
					bb.build().Free()
					sim += d.SimTime()
					d.ResetStats() // keep the launch log from growing
				}
				b.ReportMetric(sim/float64(b.N)*1e6, "sim-us/op")
			})
		}
	}
}

func BenchmarkGzipQualityColumn(b *testing.B) {
	vals := benchColumn(100000)
	raw := make([]byte, 0, len(vals)*3)
	for _, v := range vals {
		raw = append(raw, byte('0'+v/10), byte('0'+v%10), '\t')
	}
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if _, err := Gzip(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSparseEncode(b *testing.B) {
	vals := make([]uint32, 100000)
	for i := 0; i < len(vals); i += 997 {
		vals[i] = uint32(i)
	}
	b.SetBytes(int64(len(vals) * 4))
	for i := 0; i < b.N; i++ {
		SparseEncode(vals, 0)
	}
}

func BenchmarkPack2Bit(b *testing.B) {
	vals := make([]uint8, 100000)
	for i := range vals {
		vals[i] = uint8(i & 3)
	}
	b.SetBytes(int64(len(vals)))
	for i := 0; i < b.N; i++ {
		Pack2Bit(vals)
	}
}
