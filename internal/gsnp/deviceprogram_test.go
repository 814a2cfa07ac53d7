package gsnp

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
)

// TestDeviceProgramPinned freezes the simulated device program of a GPU run
// with compressed output — the window kernels (counting, the multipass sort,
// likelihood_comp, posterior) and the output codec — kernel by kernel: the
// launch count, every integer counter summed over the kernel's launches, and
// the sums of its coalescing factors and simulated seconds. A host-side
// rewrite of the simulator or of an engine must leave this file unchanged;
// a change to what the device executes shows up here first. At GOMAXPROCS=1
// every launch runs inline, so count_scatter's atomic slots, and with them
// the pre-sort word order batch_bitonic meters, are reproducible. Regenerate
// deliberately with:
//
//	go test ./internal/gsnp -run TestDeviceProgramPinned -update-golden
func TestDeviceProgramPinned(t *testing.T) {
	checkDeviceProgram(t, SortMultipass, "device_program.txt")
}

// TestSortBaselineProgramsPinned freezes the same run under the two
// likelihood_sort baselines of Figure 7(b): the single-pass batch bitonic
// (one padded size class) and bitonic_noneq, the one phased kernel whose
// lanes retire early — lanes past an array's padded size at its load phase,
// whole blocks after their prefix of the network. Regenerate with the same
// -update-golden flag.
func TestSortBaselineProgramsPinned(t *testing.T) {
	checkDeviceProgram(t, SortSinglePass, "device_program_singlepass.txt")
	checkDeviceProgram(t, SortNonEq, "device_program_noneq.txt")
}

// checkDeviceProgram runs the pinned GPU window pipeline with the given
// likelihood_sort and compares its device program with testdata/file.
func checkDeviceProgram(t *testing.T, sort SortMethod, file string) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ds := testDataset(t, 3000, 10, 31)
	dev := gpu.NewDevice(gpu.M2050())
	runGSNP(t, ds, pipeline.Config{Window: 1100, CompressOutput: true}, Config{Mode: ModeGPU, Device: dev, Sort: sort})
	got := deviceProgram(dev)

	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s rewritten (%d kernels)", file, strings.Count(got, "\n")-1)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing device program (run with -update-golden to create): %v", err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got: %s\nwant: %s", file, i+1, g, w)
		}
	}
}

// deviceProgram renders the device's launch log, one line per kernel name
// in name order, plus one line of host<->device copy volume. Float sums are
// taken over each kernel's launches in ascending order, so the text does not
// depend on the order concurrent launches committed in.
func deviceProgram(d *gpu.Device) string {
	byName := map[string][]gpu.LaunchStats{}
	for _, ls := range d.Launches() {
		byName[ls.Name] = append(byName[ls.Name], ls)
	}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	slices.Sort(names)
	var sb strings.Builder
	for _, name := range names {
		var s gpu.Stats
		var coal, sim []float64
		for _, ls := range byName[name] {
			s.Add(ls.Stats)
			coal = append(coal, ls.CoalescingFactor)
			sim = append(sim, ls.Stats.SimSeconds)
		}
		fmt.Fprintf(&sb, "%s launches=%d inst=%d warp_inst=%d gld=%d gst=%d gld_b=%d gst_b=%d sld=%d sst=%d cld=%d trans=%d coalesce=%s sim_s=%s\n",
			name, s.Kernels, s.Instructions, s.WarpInstructions, s.GlobalLoads, s.GlobalStores,
			s.GlobalLoadBytes, s.GlobalStoreBytes, s.SharedLoads, s.SharedStores, s.ConstLoads,
			s.GlobalTransactions, sortedSum(coal), sortedSum(sim))
	}
	tot := d.Stats()
	fmt.Fprintf(&sb, "copies h2d_b=%d d2h_b=%d\n", tot.H2DBytes, tot.D2HBytes)
	return sb.String()
}

// sortedSum sums v in ascending order and prints the exact result.
func sortedSum(v []float64) string {
	slices.Sort(v)
	var s float64
	for _, x := range v {
		s += x
	}
	return fmt.Sprintf("%.17g", s)
}
