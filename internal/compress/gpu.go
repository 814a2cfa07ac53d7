package compress

import "gsnp/internal/gpu"

// GPU implementations of the RLE-DICT pipeline, as Section V-B describes:
// RLE is built from flag/scan/scatter (the "primitive reduction"), DICT
// from sort + unique to build the dictionary and a parallel binary search
// to index elements (the dictionary goes to constant memory when it fits).
// Where the values of a column span a small range, as the result columns'
// do, the dictionary comes from a presence table instead of the sort.
// The byte output is identical to the CPU encoder's, so files compressed on
// the device decode with the host decoder and vice versa.

// rleBlock is the thread-block size of the RLE kernels.
const rleBlock = 256

// RLEEncodeGPU computes the run decomposition on the device.
func RLEEncodeGPU(d *gpu.Device, vals []uint32) (values, lengths []uint32) {
	n := len(vals)
	if n == 0 {
		return nil, nil
	}
	in := gpu.Alloc[uint32](d, n)
	defer in.Free()
	in.CopyIn(vals)

	// Flag run heads. Each kernel runs a block at a time through the
	// block-wide primitives; its comment is the per-lane program they
	// charge.
	flags := gpu.Alloc[uint32](d, n)
	defer flags.Free()
	grid := (n + rleBlock - 1) / rleBlock
	d.MustLaunchWide(gpu.LaunchConfig{Name: "rle_flag", Grid: grid, Block: rleBlock}, func(b *gpu.Block) {
		// Lane l: f := 1; if i > 0 { t.Exec(1); if Ld(in, i-1) ==
		// Ld(in, i) { f = 0 } }; St(flags, i, f).
		i0 := b.Index * rleBlock
		m := min(rleBlock, n-i0)
		l0 := 0
		if i0 == 0 {
			l0 = 1 // element 0 heads a run and loads nothing
		}
		b.Exec(l0, m-l0, 1)
		prev := gpu.LdWide(b, in, l0, i0+l0-1, m-l0)
		cur := gpu.LdWide(b, in, l0, i0+l0, m-l0)
		var f [rleBlock]uint32
		f[0] = uint32(l0)
		for k := range cur {
			if prev[k] != cur[k] {
				f[l0+k] = 1
			}
		}
		gpu.StWide(b, flags, 0, i0, f[:m])
	})

	// Scan flags into run destinations, scatter run heads.
	dst := gpu.Alloc[uint32](d, n)
	defer dst.Free()
	runs := int(gpu.ExclusiveScanU32(d, flags, dst))
	outVals := gpu.Alloc[uint32](d, runs)
	defer outVals.Free()
	starts := gpu.Alloc[uint32](d, runs+1)
	defer starts.Free()
	d.MustLaunchWide(gpu.LaunchConfig{Name: "rle_scatter", Grid: grid, Block: rleBlock}, func(b *gpu.Block) {
		// Lane l: if Ld(flags, i) == 1 { r := Ld(dst, i);
		// St(outVals, r, Ld(in, i)); St(starts, r, i) }.
		i0 := b.Index * rleBlock
		for l, f := range gpu.LdWide(b, flags, 0, i0, min(rleBlock, n-i0)) {
			if f == 1 {
				i := i0 + l
				r := int(gpu.LdLane(b, dst, l, i))
				gpu.StLane(b, outVals, l, r, gpu.LdLane(b, in, l, i))
				gpu.StLane(b, starts, l, r, uint32(i))
			}
		}
	})
	starts.Host()[runs] = uint32(n)

	// Run lengths from adjacent start positions.
	outLens := gpu.Alloc[uint32](d, runs)
	defer outLens.Free()
	lgrid := (runs + rleBlock - 1) / rleBlock
	d.MustLaunchWide(gpu.LaunchConfig{Name: "rle_lengths", Grid: lgrid, Block: rleBlock}, func(b *gpu.Block) {
		// Lane l: t.Exec(1); St(outLens, i, Ld(starts, i+1)-Ld(starts, i)).
		i0 := b.Index * rleBlock
		m := min(rleBlock, runs-i0)
		b.Exec(0, m, 1)
		next := gpu.LdWide(b, starts, 0, i0+1, m)
		var lens [rleBlock]uint32
		for k, s := range gpu.LdWide(b, starts, 0, i0, m) {
			lens[k] = next[k] - s
		}
		gpu.StWide(b, outLens, 0, i0, lens[:m])
	})

	values = make([]uint32, runs)
	lengths = make([]uint32, runs)
	outVals.CopyOut(values)
	outLens.CopyOut(lengths)
	return values, lengths
}

// dictPresenceRangePerKey decides how dictEncodeGPU finds the distinct
// values of a column of n keys: through a presence table when the largest
// key is below this many times n, by sort + unique otherwise. The sort is
// O(n log^2 n) lane invocations whatever the keys are; the table costs the
// host about 0.11 us a slot, most of it the scan over the table.
// BenchmarkDictBuild on the 2-core bench host, 32 K keys, sort + unique
// against presence table: range 64 27.4 against 0.87 ms, 10 K 28.9 against
// 1.9 ms, 128 K (4 n) 29.4 against 14.7 ms, 256 K (8 n) 31.4 against
// 29.2 ms, 1 M 31.1 against 111 ms. The break-even is near 8 n (at 1 K and
// at 128 keys too) and the constant sits at half of it. Simulated time
// favours the table further out, five launches against more than a
// hundred: 1.12 ms against 0.06 to 0.70 ms over the same ranges. The result
// columns (qualities to 99, counts and depths of a few hundred, copy number
// x 1000) and their run lengths are far below the bound at any window size
// worth compressing; a tail block of a few runs is above it and is sorted,
// in a handful of launches either way.
const dictPresenceRangePerKey = 4

// dictEncodeGPU builds the sorted dictionary on the device and indexes vals
// against it with the batched binary search, returning the dictionary and
// the per-element indexes. The dictionary is the same whichever way it is
// built, and so are the serialised bytes.
func dictEncodeGPU(d *gpu.Device, vals []uint32) (dict []uint32, indexes []uint32) {
	n := len(vals)
	keys := gpu.Alloc[uint32](d, n)
	defer keys.Free()
	keys.CopyIn(vals)

	var uniq *gpu.Buffer[uint32]
	if maxV := gpu.ReduceMaxU32(d, keys); uint64(maxV) < dictPresenceRangePerKey*uint64(n) {
		uniq = gpu.DistinctU32(d, keys, int(maxV)+1)
	} else {
		uniq = sortUniqueGPU(d, vals)
	}
	defer uniq.Free()
	dict = make([]uint32, uniq.Len())
	uniq.CopyOut(dict)

	idx := gpu.Alloc[uint32](d, n)
	defer idx.Free()
	gpu.BatchBinarySearchU32(d, keys, dict, idx)
	indexes = make([]uint32, n)
	idx.CopyOut(indexes)
	return dict, indexes
}

// sortUniqueGPU is the dictionary build of Section V-B, for any column:
// device-wide sort, then unique (caller frees the result). The sort is in
// place and the search needs the keys in column order, so it sorts an
// upload of its own.
func sortUniqueGPU(d *gpu.Device, vals []uint32) *gpu.Buffer[uint32] {
	work := gpu.Alloc[uint32](d, len(vals))
	defer work.Free()
	work.CopyIn(vals)
	gpu.SortU32(d, work)
	return gpu.UniqueU32(d, work)
}

// appendDictBlockGPU serialises a dictionary block using device-computed
// dictionary and indexes; the byte layout matches appendDictBlock.
func appendDictBlockGPU(buf []byte, d *gpu.Device, vals []uint32) []byte {
	dict, indexes := dictEncodeGPU(d, vals)
	buf = putUvarint(buf, uint64(len(dict)))
	prev := uint32(0)
	for i, v := range dict {
		dv := v - prev
		if i == 0 {
			dv = v
		}
		buf = putUvarint(buf, uint64(dv))
		prev = v
	}
	width := bitWidth(uint32(len(dict) - 1))
	if len(dict) == 1 {
		width = 1
	}
	buf = append(buf, byte(width))
	var bw BitWriter
	for _, ix := range indexes {
		bw.WriteBits(ix, width)
	}
	packed := bw.Bytes()
	buf = putUvarint(buf, uint64(len(packed)))
	return append(buf, packed...)
}

// RLEDictEncodeGPU is the device implementation of RLEDictEncode. Its
// output is byte-identical to the CPU encoder's.
func RLEDictEncodeGPU(d *gpu.Device, vals []uint32) []byte {
	values, lengths := RLEEncodeGPU(d, vals)
	buf := putUvarint(nil, uint64(len(vals)))
	buf = putUvarint(buf, uint64(len(values)))
	if len(values) == 0 {
		return buf
	}
	buf = appendDictBlockGPU(buf, d, values)
	buf = appendDictBlockGPU(buf, d, lengths)
	return buf
}
