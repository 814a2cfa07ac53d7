package compress

import (
	"bytes"
	"testing"

	"gsnp/internal/gpu"
)

// Fuzz targets: the decoders must never panic or loop on adversarial
// bytes — they parse data that crosses machine and file-system boundaries.

func FuzzRLEDictDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add(RLEDictEncode([]uint32{1, 1, 2, 3, 3, 3}))
	f.Add(RLEDictEncode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, n, err := RLEDictDecode(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Whatever decoded must re-encode and decode to itself.
		back, _, err := RLEDictDecode(RLEDictEncode(vals))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if len(back) != len(vals) {
			t.Fatalf("re-decode length %d != %d", len(back), len(vals))
		}
	})
}

func FuzzSparseDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(SparseEncode([]uint32{0, 5, 0, 9}, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, n, err := SparseDecode(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		_ = vals
	})
}

func FuzzDictDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(DictEncode([]uint32{7, 7, 9}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, n, err := DictDecode(data); err == nil && n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
	})
}

func FuzzUnpack2Bit(f *testing.F) {
	f.Add([]byte{})
	f.Add(Pack2Bit([]uint8{0, 1, 2, 3, 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		vals, n, err := Unpack2Bit(data)
		if err != nil {
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// Canonicalisation: re-packing decoded values reproduces the
		// consumed prefix's payload bits.
		if got, _, err := Unpack2Bit(Pack2Bit(vals)); err != nil || !bytes.Equal(got, vals) {
			t.Fatalf("2-bit re-pack not canonical: %v", err)
		}
	})
}

// FuzzRLEDictEncodeGPU is differential: whatever the column, the device
// encoder must produce the CPU encoder's bytes, and they must decode to the
// input. The first byte picks how the rest is read: as little-endian 16-bit
// values (the width of the widest result column), so short inputs already
// produce runs, repeated run lengths and dictionaries of more than one
// entry, or as 32-bit values, which reach past any presence table. The
// committed corpus has columns on both sides of dictPresenceRangePerKey in
// both widths.
func FuzzRLEDictEncodeGPU(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 7, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 2, 0, 3, 0, 3, 0, 3, 0})
	f.Add(append([]byte{0}, bytes.Repeat([]byte{40, 0, 40, 0, 40, 0, 12, 0}, 90)...)) // spans two 256-lane blocks
	f.Add([]byte{1, 7, 0, 0, 0, 7, 0, 0, 0, 255, 255, 255, 255})
	// One device for every execution, as in a run: the encoder then also
	// works on buffers and launch scratch recycled from other columns.
	d := gpu.NewDevice(gpu.M2050())
	f.Fuzz(func(t *testing.T, data []byte) {
		width := 2
		if len(data) > 0 {
			width += 2 * int(data[0]&1)
			data = data[1:]
		}
		if len(data) > 1<<11 {
			data = data[:1<<11] // a launch per bitonic pass: keep executions short
		}
		vals := make([]uint32, len(data)/width)
		for i := range vals {
			for k := width - 1; k >= 0; k-- {
				vals[i] = vals[i]<<8 | uint32(data[width*i+k])
			}
		}
		cpu := RLEDictEncode(vals)
		d.ResetStats() // keep the launch log from growing
		dev := RLEDictEncodeGPU(d, vals)
		if !bytes.Equal(dev, cpu) {
			t.Fatalf("GPU encoding (%d bytes) differs from CPU encoding (%d bytes) of %v", len(dev), len(cpu), vals)
		}
		back, n, err := RLEDictDecode(dev)
		if err != nil || n != len(dev) {
			t.Fatalf("decode: %v, consumed %d of %d bytes", err, n, len(dev))
		}
		if len(back) != len(vals) {
			t.Fatalf("decoded %d values, want %d", len(back), len(vals))
		}
		for i := range vals {
			if back[i] != vals[i] {
				t.Fatalf("value %d decodes to %d, want %d", i, back[i], vals[i])
			}
		}
	})
}
