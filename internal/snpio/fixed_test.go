package snpio

import (
	"math"
	"strconv"
	"testing"
)

// requireFixedMatchesStrconv checks appendFixed against the strconv call
// it replaced, at both column precisions.
func requireFixedMatchesStrconv(t *testing.T, v float64) {
	t.Helper()
	for _, c := range []struct {
		scale    uint64
		decimals int
	}{{rankSumScale, 5}, {copyNumScale, 3}} {
		got := string(appendFixed(nil, v, c.scale))
		want := strconv.FormatFloat(v, 'f', c.decimals, 64)
		if got != want {
			t.Fatalf("appendFixed(%v [%#x], scale %d) = %q, strconv prints %q",
				v, math.Float64bits(v), c.scale, got, want)
		}
	}
}

// TestAppendFixedMatchesStrconv walks every value the two fixed-point
// columns can hold: a rank-sum p-value is k/100000 for k in [0, 100000];
// a copy number is a uint16 depth over the mean depth, k/1000 — every k up
// to 2,000,000 (copy number 2000), then a stride on to 70,000,000, past
// the largest depth (65,535) over a mean depth of 0.001.
func TestAppendFixedMatchesStrconv(t *testing.T) {
	for k := 0; k <= rankSumScale; k++ {
		requireFixedMatchesStrconv(t, float64(k)/rankSumScale)
	}
	for k := 0; k <= 2_000_000; k++ {
		requireFixedMatchesStrconv(t, float64(k)/copyNumScale)
	}
	for k := 2_000_000; k <= 70_000_000; k += 997 {
		requireFixedMatchesStrconv(t, float64(k)/copyNumScale)
	}
	// The way QuantizeRow arrives at the values.
	r := Row{RankSumP: 0.123456789, CopyNum: 65535 / 0.0013}
	QuantizeRow(&r)
	requireFixedMatchesStrconv(t, r.RankSumP)
	requireFixedMatchesStrconv(t, r.CopyNum)
	// Values the integer path must hand to strconv.
	for _, v := range []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), -0.5, -1e-320,
		5e-324, 1e-7, 0.000005, 0.0000149999, 0.1 + 0.2, 1.0 / 3, 1 << 36, 1<<36 - 0.5,
		math.Nextafter(1<<36, 0), 1e15, 1e300, math.MaxFloat64,
	} {
		requireFixedMatchesStrconv(t, v)
	}
}

// FuzzAppendFixed feeds arbitrary bit patterns — NaN payloads, infinities,
// negatives, subnormals, huge magnitudes, and quantized values by luck.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range []float64{0, 1, 0.5, 0.00001, 2.345, math.NaN(), math.Inf(1), -1, 5e-324, 1e300} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		requireFixedMatchesStrconv(t, math.Float64frombits(bits))
	})
}

func BenchmarkRowAppendText(b *testing.B) {
	r := sampleRow()
	QuantizeRow(&r)
	var buf []byte
	for i := 0; i < b.N; i++ {
		buf = r.appendText(buf[:0])
	}
	b.SetBytes(int64(len(buf)))
}
