package compress

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"gsnp/internal/gpu"
)

func TestBitWriterReaderRoundTrip(t *testing.T) {
	f := func(vals []uint32, width8 uint8) bool {
		width := uint(width8%32) + 1
		var bw BitWriter
		masked := make([]uint32, len(vals))
		for i, v := range vals {
			masked[i] = v & ((1 << width) - 1)
			bw.WriteBits(v, width)
		}
		br := NewBitReader(bw.Bytes())
		for _, want := range masked {
			if br.ReadBits(width) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitWidth(t *testing.T) {
	cases := map[uint32]uint{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, 1 << 31: 32}
	for v, want := range cases {
		if got := bitWidth(v); got != want {
			t.Errorf("bitWidth(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestRLEEncodeDecode(t *testing.T) {
	vals := []uint32{5, 5, 5, 2, 9, 9, 9, 9, 1}
	values, lengths := RLEEncode(vals)
	wantV := []uint32{5, 2, 9, 1}
	wantL := []uint32{3, 1, 4, 1}
	if len(values) != 4 {
		t.Fatalf("runs = %d", len(values))
	}
	for i := range wantV {
		if values[i] != wantV[i] || lengths[i] != wantL[i] {
			t.Fatalf("run %d = (%d,%d), want (%d,%d)", i, values[i], lengths[i], wantV[i], wantL[i])
		}
	}
	back := RLEDecode(values, lengths)
	if len(back) != len(vals) {
		t.Fatalf("decoded length %d", len(back))
	}
	for i := range vals {
		if back[i] != vals[i] {
			t.Fatal("roundtrip mismatch")
		}
	}
	if v, l := RLEEncode(nil); v != nil || l != nil {
		t.Error("empty input produced runs")
	}
}

func roundTripU32(t *testing.T, name string, enc func([]uint32) []byte, dec func([]byte) ([]uint32, int, error), vals []uint32) []byte {
	t.Helper()
	buf := enc(vals)
	// Append trailing garbage to verify consumed-byte reporting.
	full := append(append([]byte{}, buf...), 0xAA, 0xBB)
	got, n, err := dec(full)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if n != len(buf) {
		t.Fatalf("%s: consumed %d bytes, want %d", name, n, len(buf))
	}
	if len(got) != len(vals) {
		t.Fatalf("%s: decoded %d values, want %d", name, len(got), len(vals))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("%s: value %d = %d, want %d", name, i, got[i], vals[i])
		}
	}
	return buf
}

func TestDictRoundTrip(t *testing.T) {
	roundTripU32(t, "dict", DictEncode, DictDecode, []uint32{7, 7, 42, 7, 100000, 42})
	roundTripU32(t, "dict-empty", DictEncode, DictDecode, nil)
	roundTripU32(t, "dict-single", DictEncode, DictDecode, []uint32{3, 3, 3})
}

func TestRLEDictRoundTrip(t *testing.T) {
	vals := make([]uint32, 0, 1000)
	rng := rand.New(rand.NewSource(1))
	for len(vals) < 1000 {
		v := uint32(rng.Intn(40))
		run := 1 + rng.Intn(30)
		for k := 0; k < run && len(vals) < 1000; k++ {
			vals = append(vals, v)
		}
	}
	buf := roundTripU32(t, "rledict", RLEDictEncode, RLEDictDecode, vals)
	if len(buf) > len(vals) {
		t.Errorf("RLE-DICT did not compress runs: %d bytes for %d values", len(buf), len(vals))
	}
	roundTripU32(t, "rledict-empty", RLEDictEncode, RLEDictDecode, nil)
	roundTripU32(t, "rledict-const", RLEDictEncode, RLEDictDecode, []uint32{9, 9, 9, 9, 9, 9, 9, 9})
}

func TestRLEDictProperty(t *testing.T) {
	f := func(raw []uint8, runLen8 uint8) bool {
		runLen := int(runLen8%20) + 1
		var vals []uint32
		for _, v := range raw {
			for k := 0; k < runLen; k++ {
				vals = append(vals, uint32(v%64))
			}
		}
		buf := RLEDictEncode(vals)
		got, _, err := RLEDictDecode(buf)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPack2BitRoundTrip(t *testing.T) {
	f := func(raw []uint8) bool {
		vals := make([]uint8, len(raw))
		for i, v := range raw {
			vals[i] = v & 3
		}
		buf := Pack2Bit(vals)
		got, n, err := Unpack2Bit(append(buf, 0xFF))
		if err != nil || n != len(buf) || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPack2BitDensity(t *testing.T) {
	buf := Pack2Bit(make([]uint8, 1000))
	if len(buf) > 260 {
		t.Errorf("2-bit packing of 1000 bases took %d bytes", len(buf))
	}
}

func TestSparseRoundTrip(t *testing.T) {
	vals := make([]uint32, 500)
	vals[3] = 7
	vals[499] = 1
	buf := SparseEncode(vals, 0)
	if len(buf) > 20 {
		t.Errorf("sparse encoding of 2 exceptions took %d bytes", len(buf))
	}
	got, n, err := SparseDecode(append(buf, 0x11))
	if err != nil || n != len(buf) {
		t.Fatalf("decode: %v (n=%d want %d)", err, n, len(buf))
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("value %d mismatch", i)
		}
	}

	// Non-zero default.
	vals2 := []uint32{9, 9, 2, 9}
	buf2 := SparseEncode(vals2, 9)
	got2, _, err := SparseDecode(buf2)
	if err != nil || got2[2] != 2 || got2[0] != 9 {
		t.Fatalf("non-zero default corrupted: %v %v", got2, err)
	}
}

func TestSparseProperty(t *testing.T) {
	f := func(raw []uint8, def uint8) bool {
		vals := make([]uint32, len(raw))
		for i, v := range raw {
			vals[i] = uint32(v % 8)
		}
		buf := SparseEncode(vals, uint32(def%8))
		got, _, err := SparseDecode(buf)
		if err != nil || len(got) != len(vals) {
			return false
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodersRejectGarbage(t *testing.T) {
	garbage := [][]byte{
		{},
		{0x05},             // claims 5 elements, no data
		{0x02, 0x00},       // dict: zero dictionary
		{0xFF, 0xFF, 0xFF}, // malformed varint territory
	}
	for _, g := range garbage {
		if _, _, err := DictDecode(g); err == nil && len(g) > 0 && g[0] != 0 {
			t.Errorf("DictDecode accepted %x", g)
		}
		if _, _, err := RLEDictDecode(g); err == nil && len(g) > 0 && g[0] != 0 {
			t.Errorf("RLEDictDecode accepted %x", g)
		}
	}
	// A truncated 2-bit block (claims 5 elements, provides none).
	if _, _, err := Unpack2Bit([]byte{0x05}); err == nil {
		t.Error("Unpack2Bit accepted a truncated block")
	}
}

func TestGzipRoundTrip(t *testing.T) {
	data := bytes.Repeat([]byte("SNP detection on the GPU\n"), 100)
	z, err := Gzip(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(z) >= len(data) {
		t.Errorf("gzip did not compress repetitive text: %d -> %d", len(data), len(z))
	}
	back, err := Gunzip(z)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back, data) {
		t.Error("gzip roundtrip corrupted data")
	}
	if _, err := Gunzip([]byte("not gzip")); err == nil {
		t.Error("Gunzip accepted garbage")
	}
}

func qualityColumn(n int, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	vals := make([]uint32, 0, n)
	for len(vals) < n {
		v := uint32(10 + rng.Intn(50))
		run := 5 + rng.Intn(40) // tens of repeats, as the paper observes
		for k := 0; k < run && len(vals) < n; k++ {
			vals = append(vals, v)
		}
	}
	return vals
}

func TestGPUMatchesCPURLE(t *testing.T) {
	d := gpu.NewDevice(gpu.M2050())
	vals := qualityColumn(5000, 7)
	cv, cl := RLEEncode(vals)
	gv, gl := RLEEncodeGPU(d, vals)
	if len(gv) != len(cv) {
		t.Fatalf("GPU runs = %d, CPU runs = %d", len(gv), len(cv))
	}
	for i := range cv {
		if gv[i] != cv[i] || gl[i] != cl[i] {
			t.Fatalf("run %d differs: GPU (%d,%d) CPU (%d,%d)", i, gv[i], gl[i], cv[i], cl[i])
		}
	}
	if v, l := RLEEncodeGPU(d, nil); v != nil || l != nil {
		t.Error("GPU RLE of empty input produced runs")
	}
}

func TestGPURLEDictBitIdentical(t *testing.T) {
	d := gpu.NewDevice(gpu.M2050())
	for _, seed := range []int64{1, 2, 3} {
		vals := qualityColumn(3000, seed)
		cpu := RLEDictEncode(vals)
		dev := RLEDictEncodeGPU(d, vals)
		if !bytes.Equal(cpu, dev) {
			t.Fatalf("seed %d: GPU encoding differs from CPU (%d vs %d bytes)", seed, len(dev), len(cpu))
		}
		// And decodes correctly.
		got, _, err := RLEDictDecode(dev)
		if err != nil {
			t.Fatal(err)
		}
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("seed %d: GPU-encoded stream decodes wrong at %d", seed, i)
			}
		}
	}
}

func TestRLEDictBeatsGzipOnQualityColumns(t *testing.T) {
	// The design claim of Section V-B: the custom codec beats gzip on
	// quality-like columns with few distinct values and long runs.
	vals := qualityColumn(20000, 99)
	custom := RLEDictEncode(vals)
	raw := make([]byte, 0, len(vals)*3)
	for _, v := range vals {
		// Text-ish representation comparable to the plain output column.
		raw = append(raw, byte('0'+v/10), byte('0'+v%10), '\t')
	}
	z, err := Gzip(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(custom) >= len(z) {
		t.Errorf("RLE-DICT (%d B) not smaller than gzip (%d B) on a quality column", len(custom), len(z))
	}
}

// launchCounts tallies the device's launch log by kernel name.
func launchCounts(d *gpu.Device) map[string]int {
	counts := map[string]int{}
	for _, ls := range d.Launches() {
		counts[ls.Name]++
	}
	return counts
}

// TestDictBuildPathsAgree: the presence table and sort + unique find the
// same dictionary, dictEncodeGPU takes the table exactly when the largest
// key is below dictPresenceRangePerKey times the column length, and the
// indexes point at the keys either way.
func TestDictBuildPathsAgree(t *testing.T) {
	withMax := func(n int, maxV uint32) []uint32 {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(i*7919) % max(maxV, 1)
		}
		vals[n/2] = maxV
		return vals
	}
	const n = 100
	const bound = dictPresenceRangePerKey * n
	allEqual := func(v uint32) []uint32 {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = v
		}
		return vals
	}
	cases := []struct {
		name     string
		vals     []uint32
		presence bool
	}{
		{"one key, zero", []uint32{0}, true},
		{"one key below the bound", []uint32{dictPresenceRangePerKey - 1}, true},
		{"one key at the bound", []uint32{dictPresenceRangePerKey}, false},
		{"all equal", allEqual(7), true},
		{"all zero", allEqual(0), true},
		{"max at bound-1", withMax(n, bound-1), true},
		{"max at bound", withMax(n, bound), false},
		{"max at bound+1", withMax(n, bound+1), false},
		{"max+1 overflows", withMax(1000, ^uint32(0)), false},
		{"small range, tiny column", []uint32{40, 12, 40}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := buildDict(c.vals)
			d := gpu.NewDevice(gpu.M2050())
			dict, indexes := dictEncodeGPU(d, c.vals)
			if !slices.Equal(dict, want) {
				t.Fatalf("dictionary %v, want %v", dict, want)
			}
			for i, v := range c.vals {
				if dict[indexes[i]] != v {
					t.Fatalf("key %d (%d) indexed as %d", i, v, dict[indexes[i]])
				}
			}
			ran := launchCounts(d)
			if ran["dict_mark"]+ran["unique_flag"] != 1 {
				t.Fatalf("dictionary not built exactly once: %v", ran)
			}
			if got := ran["dict_mark"] == 1; got != c.presence {
				t.Errorf("presence table used: %v, want %v (launches %v)", got, c.presence, ran)
			}

			// Both builds on this column, whichever the rule picked.
			sorted := sortUniqueGPU(d, c.vals)
			defer sorted.Free()
			if !slices.Equal(sorted.Host(), want) {
				t.Errorf("sort + unique found %v, want %v", sorted.Host(), want)
			}
			if maxV := slices.Max(c.vals); maxV < 1<<20 {
				keys := gpu.Alloc[uint32](d, len(c.vals))
				defer keys.Free()
				keys.CopyIn(c.vals)
				marked := gpu.DistinctU32(d, keys, int(maxV)+1)
				defer marked.Free()
				if !slices.Equal(marked.Host(), want) {
					t.Errorf("presence table found %v, want %v", marked.Host(), want)
				}
			}
		})
	}
}

// TestRLEDictGPULaunchBudget pins the device program of one encode of the
// bench column: launches per kernel and global accesses. They are counts of
// the simulated program and repeat exactly, so this is the regression gate
// for the codec's cost that a timing cannot be — above all that a column of
// small values never enters the device-wide sort.
func TestRLEDictGPULaunchBudget(t *testing.T) {
	d := gpu.NewDevice(gpu.M2050())
	RLEDictEncodeGPU(d, benchColumn(100000))
	want := map[string]int{
		"rle_flag": 1, "rle_scatter": 1, "rle_lengths": 1,
		"reduce_max_u32": 2, "dict_mark": 2, "dict_compact": 2, "dict_search_const": 2,
		"scan_u32": 3, "scan_carry": 3,
	}
	if got := launchCounts(d); !reflect.DeepEqual(got, want) {
		t.Errorf("launches per kernel %v, want %v", got, want)
	}
	st := d.Stats()
	if got, want := st.GlobalLoads+st.GlobalStores, int64(977090); got != want {
		t.Errorf("%d global loads and stores, want %d", got, want)
	}
}
