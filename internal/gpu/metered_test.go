package gpu_test

import (
	"math"
	"reflect"
	"testing"

	"gsnp/internal/gpu"
)

// TestMeteredRunsMatchPerAccess holds every kernel that charges a run of
// accesses in one counter update to its per-access form, kept here: the
// same kernel written one Ld, St, CLd, shared access and Exec at a time.
// The run form, inline and fanned out over three host goroutines, must
// give the per-access form's LaunchStats for every launch — counters, warp
// instructions and the sampled coalescing factor — its device totals and
// its memory. The phased kernels' per-access forms are their Sync twins:
// TestPhasedKernelsMatchSyncOracle holds batch_bitonic, bitonic_noneq,
// scan_u32 and reduce_max_u32 to them; the engine's kernels are held to
// theirs in internal/gsnp.
func TestMeteredRunsMatchPerAccess(t *testing.T) {
	constDict, globalDict := searchDict(1000), searchDict(20000) // 4 KB fits constant memory, 80 KB does not
	for _, c := range []struct {
		name            string
		runs, perAccess func(d *gpu.Device) []uint32
	}{
		{"dict_search_const", search(constDict, false), search(constDict, true)},
		{"dict_search_global", search(globalDict, false), search(globalDict, true)},
		// Block 0's lane 0 fills its coalescing sample up to the cap eight
		// loads into a ten-wide run.
		{"runs across the sample cap", meteredRuns(false), meteredRuns(true)},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(workers int, form func(*gpu.Device) []uint32) ([]gpu.LaunchStats, gpu.Stats, []uint32) {
				d := gpu.NewDevice(gpu.M2050())
				d.ForceWorkers(workers)
				mem := form(d)
				return d.Launches(), d.Stats(), mem
			}
			want, wantTotals, wantMem := run(1, c.perAccess)
			if len(want) == 0 || wantTotals.Instructions == 0 || wantTotals.GlobalTransactions == 0 {
				t.Fatalf("per-access form metered nothing: %+v", wantTotals)
			}
			for _, workers := range []int{1, 3} {
				got, totals, mem := run(workers, c.runs)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%d workers: launches differ from the per-access form:\n got %+v\nwant %+v", workers, got, want)
				}
				if totals != wantTotals {
					t.Errorf("%d workers: device totals differ:\n got %+v\nwant %+v", workers, totals, wantTotals)
				}
				if !reflect.DeepEqual(mem, wantMem) {
					t.Errorf("%d workers: memory differs from the per-access form", workers)
				}
			}
		})
	}
}

// searchDict returns n ascending dictionary entries.
func searchDict(n int) []uint32 {
	dict := make([]uint32, n)
	for i := range dict {
		dict[i] = uint32(3*i + i%7)
	}
	return dict
}

// search looks keys drawn from dict up with BatchBinarySearchU32, or with
// its per-access form (searchKeys).
func search(dict []uint32, perAccess bool) func(*gpu.Device) []uint32 {
	keys := make([]uint32, 3*oracleBlock+77)
	for i := range keys {
		keys[i] = dict[(i*2654435761)%len(dict)]
	}
	return searchKeys(dict, keys, perAccess)
}

// searchKeys looks keys up in dict with BatchBinarySearchU32, or with its
// per-access form: each search step one Exec(3) and one metered load of the
// dictionary, from constant memory when it fits and global memory
// otherwise.
func searchKeys(dict, keyList []uint32, perAccess bool) func(*gpu.Device) []uint32 {
	return func(d *gpu.Device) []uint32 {
		n := len(keyList)
		keys, out := gpu.Alloc[uint32](d, n), gpu.Alloc[uint32](d, n)
		copy(keys.Host(), keyList)
		if !perAccess {
			gpu.BatchBinarySearchU32(d, keys, dict, out)
			return out.Host()
		}
		cfg := gpu.LaunchConfig{Name: "dict_search_const", Grid: (n + oracleBlock - 1) / oracleBlock, Block: oracleBlock}
		var step func(t *gpu.Thread, mid int) uint32
		if cb, err := gpu.NewConst(d, dict); err == nil {
			defer cb.Free()
			step = func(t *gpu.Thread, mid int) uint32 { return gpu.CLd(t, cb, mid) }
		} else {
			gdict := gpu.Alloc[uint32](d, len(dict))
			defer gdict.Free()
			gdict.CopyIn(dict)
			cfg.Name = "dict_search_global"
			step = func(t *gpu.Thread, mid int) uint32 { return gpu.Ld(t, gdict, mid) }
		}
		d.MustLaunch(cfg, func(t *gpu.Thread) {
			i := t.GlobalID()
			if i >= n {
				return
			}
			key := gpu.Ld(t, keys, i)
			lo, hi := 0, len(dict)
			for lo < hi {
				t.Exec(3)
				mid := (lo + hi) / 2
				if step(t, mid) < key {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			gpu.St(t, out, i, uint32(lo))
		})
		return out.Host()
	}
}

// FuzzStepTable holds dict_search_const's step table to the per-lane search
// it stands for: a random ascending dictionary — from a base, each entry
// past the last by a gap of the input, so that its values span few or many
// slots a key and the table is built or not — and keys drawn from it, some
// of them moved off their entry, so that they may be absent from it. The
// table path must give the per-access form's LaunchStats (every counter,
// the coalescing factor), device totals and indexes.
func FuzzStepTable(f *testing.F) {
	f.Add([]byte{0, 0, 1, 3, 0, 7}, uint32(5), uint16(300), uint8(0))
	f.Add([]byte{200, 255, 17, 90}, uint32(1<<30), uint16(40), uint8(64))
	f.Add([]byte{0}, uint32(0), uint16(1), uint8(255))
	f.Add(make([]byte, 1500), uint32(77), uint16(1999), uint8(9))
	f.Fuzz(func(t *testing.T, gaps []byte, base uint32, nkeys uint16, moved uint8) {
		if len(gaps) == 0 || len(gaps) > 2000 {
			return
		}
		dict := make([]uint32, len(gaps))
		v := base >> 2 // room for 2000 gaps of 256 below 1<<32
		for i, g := range gaps {
			v += uint32(g)
			dict[i] = v
			v++
		}
		keys := make([]uint32, 1+int(nkeys)%2000)
		for i := range keys {
			keys[i] = dict[(i*2654435761)%len(dict)]
			if i%256 < int(moved) {
				keys[i] += uint32(i%3) - 1
			}
		}
		run := func(form func(*gpu.Device) []uint32) ([]gpu.LaunchStats, gpu.Stats, []uint32) {
			d := gpu.NewDevice(gpu.M2050())
			out := form(d)
			return d.Launches(), d.Stats(), out
		}
		want, wantTotals, wantOut := run(searchKeys(dict, keys, true))
		got, totals, out := run(searchKeys(dict, keys, false))
		if !reflect.DeepEqual(got, want) || totals != wantTotals {
			t.Errorf("launches differ from the per-lane search:\n got %+v\nwant %+v", got, want)
		}
		if !reflect.DeepEqual(out, wantOut) {
			t.Errorf("indexes differ from the per-lane search")
		}
	})
}

// meteredRuns is a kernel that uses the global and shared-memory runs, in
// their run form or in their per-access form. Each lane makes rounds of one
// scattered load and a ten-wide LdRun at an address the load picks; block
// 0's lane 0 makes 5,958 of them, 65,538 loads, so its sample reaches the
// 1<<16 cap after the eighth load of the last run. Then the lane clears,
// accumulates and copies out ten shared float64s and stores its sums.
func meteredRuns(perAccess bool) func(*gpu.Device) []uint32 {
	return func(d *gpu.Device) []uint32 {
		const grid, block, n, w = 3, 64, 1 << 12, 10
		in := oracleInput(d, n)
		sums := gpu.Alloc[uint32](d, grid*block*w)
		f := gpu.Alloc[float64](d, grid*block*w)
		var zero [w]float64
		d.MustLaunch(gpu.LaunchConfig{Name: "metered_runs", Grid: grid, Block: block, SharedF64: block * w}, func(t *gpu.Thread) {
			id := t.GlobalID()
			rounds := 1 + t.Lane%3
			if id == 0 {
				rounds = 5958
			}
			var acc [w]uint32
			for r := 0; r < rounds; r++ {
				i := int(gpu.Ld(t, in, (id*131+r*977)%n)) % (n - w)
				if perAccess {
					for k := range acc {
						acc[k] += gpu.Ld(t, in, i+k)
					}
					continue
				}
				for k, x := range gpu.LdRun(t, in, i, w) {
					acc[k] += x
				}
			}
			var fv [w]float64
			for k, x := range acc {
				fv[k] = float64(x) / 7
			}
			sh := t.Lane * w
			if perAccess {
				for k := range fv {
					t.SetSharedF64(sh+k, 0)
				}
				for k, x := range fv {
					t.AddSharedF64(sh+k, x)
				}
				for k := range fv {
					gpu.St(t, f, id*w+k, t.SharedF64(sh+k))
				}
				for k, x := range acc {
					gpu.St(t, sums, id*w+k, x)
				}
				return
			}
			t.SetSharedF64Run(sh, zero[:])
			t.AddSharedF64Run(sh, fv[:])
			gpu.StRun(t, f, id*w, t.SharedF64Run(sh, w))
			gpu.StRun(t, sums, id*w, acc[:])
		})
		mem := append([]uint32(nil), sums.Host()...)
		for _, x := range f.Host() {
			mem = append(mem, uint32(math.Float64bits(x)), uint32(math.Float64bits(x)>>32))
		}
		return mem
	}
}
