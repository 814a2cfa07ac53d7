package gpu

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"gsnp/internal/par"
)

// oracleKernel is one kernel written once and run in every launch form.
// Each step is the code between two barriers; it returns whether the lane
// goes on to the next barrier. State a lane carries over a barrier lives
// in Thread.Reg. The last step must return false.
type oracleKernel struct {
	name        string
	grid, block int
	sharedU32   int
	steps       []func(t *Thread, e *oracleEnv) bool
}

// oracleEnv is the memory one run of an oracleKernel works on. Every run
// gets its own, so that no form sees another form's stores.
type oracleEnv struct {
	in, out, hist *Buffer[uint32]
	tbl           *ConstBuffer[uint32]
}

func newOracleEnv(t *testing.T, d *Device, n int) *oracleEnv {
	e := &oracleEnv{in: Alloc[uint32](d, n), out: Alloc[uint32](d, n), hist: Alloc[uint32](d, 8)}
	for i, h := 0, e.in.Host(); i < n; i++ {
		h[i] = uint32(i*2654435761) >> 7
	}
	tbl, err := NewConst(d, []uint32{3, 1, 4, 1, 5, 9, 2, 6})
	if err != nil {
		t.Fatal(err)
	}
	e.tbl = tbl
	return e
}

func (e *oracleEnv) free() {
	e.in.Free()
	e.out.Free()
	e.hist.Free()
	e.tbl.Free()
}

var oracleKernels = []oracleKernel{
	{
		// Sub-warp blocks, a strided (uncoalesced) load, lanes of unequal
		// length so the warp maximum is not the lane sum over the width.
		name: "block<warp strided", grid: 3, block: 16,
		steps: []func(*Thread, *oracleEnv) bool{func(t *Thread, e *oracleEnv) bool {
			i := t.GlobalID()
			v := Ld(t, e.in, (i*7)%e.in.Len())
			t.Exec(t.Lane % 5)
			St(t, e.out, i, v+1)
			return false
		}},
	},
	{
		// One block of four warps; the tail lanes retire at entry.
		name: "early exit, atomics, const", grid: 1, block: 128,
		steps: []func(*Thread, *oracleEnv) bool{func(t *Thread, e *oracleEnv) bool {
			i := t.GlobalID()
			if i >= 100 {
				return false
			}
			v := Ld(t, e.in, i)
			w := CLd(t, e.tbl, int(v&7))
			t.Exec(int(w))
			AtomicAddU32(t, e.hist, int(v&7), 1)
			return false
		}},
	},
	{
		// Many more blocks than host workers.
		name: "grid >> workers", grid: 67, block: 64,
		steps: []func(*Thread, *oracleEnv) bool{func(t *Thread, e *oracleEnv) bool {
			i := t.GlobalID()
			if i%3 == 0 {
				t.Exec(2)
				return false
			}
			St(t, e.out, i, Ld(t, e.in, i)^uint32(t.Block))
			return false
		}},
	},
	{
		// Barriers, shared memory, a register carried across them, and
		// lanes retiring at different barriers.
		name: "phased tree with retiring lanes", grid: 5, block: 64, sharedU32: 64,
		steps: []func(*Thread, *oracleEnv) bool{
			func(t *Thread, e *oracleEnv) bool {
				v := Ld(t, e.in, t.GlobalID())
				t.Reg[0] = uint64(v)
				t.SetSharedU32(t.Lane, v)
				return t.Lane < 48 // the top 16 lanes never reach a barrier
			},
			func(t *Thread, e *oracleEnv) bool {
				if t.Lane < 32 {
					t.Exec(1)
					t.SetSharedU32(t.Lane, t.SharedU32(t.Lane)+t.SharedU32(t.Lane+32))
				}
				t.Reg[1]++
				return t.Lane%2 == 0
			},
			func(t *Thread, e *oracleEnv) bool {
				St(t, e.out, t.GlobalID(), t.SharedU32(t.Lane/2)+uint32(t.Reg[0])+uint32(t.Reg[1]))
				return false
			},
		},
	},
}

// The three launch forms of an oracleKernel. The async form exists only
// for kernels without barriers.
func (k *oracleKernel) cfg(sync bool) LaunchConfig {
	return LaunchConfig{Name: k.name, Grid: k.grid, Block: k.block, SharedU32: k.sharedU32, Sync: sync}
}

func (k *oracleKernel) runSync(d *Device, e *oracleEnv) LaunchStats {
	return d.MustLaunch(k.cfg(true), func(t *Thread) {
		for _, step := range k.steps {
			if !step(t, e) {
				return
			}
			t.Sync()
		}
	})
}

func (k *oracleKernel) runPhased(d *Device, e *oracleEnv) LaunchStats {
	return d.MustLaunchPhased(k.cfg(false), len(k.steps), func(t *Thread, p int) bool {
		return k.steps[p](t, e)
	})
}

func (k *oracleKernel) runAsync(d *Device, e *oracleEnv) LaunchStats {
	return d.MustLaunch(k.cfg(false), func(t *Thread) { k.steps[0](t, e) })
}

// TestLaneCursorMatchesSyncOracle pins the accounting of the three block
// runners: the async runner steps one Thread, the lane cursor, through a
// block; the phased runner walks a Thread per lane in lockstep, reset block
// to block rather than rebuilt; the Sync runner gives every lane a
// goroutine. The same kernel must meter identically through all of them —
// every counter, the warp issue slots, the sampled coalescing factor and
// the transactions derived from it — whether the blocks run inline or on
// forced helper goroutines.
func TestLaneCursorMatchesSyncOracle(t *testing.T) {
	for _, k := range oracleKernels {
		t.Run(k.name, func(t *testing.T) {
			n := k.grid * k.block
			run := func(workers int, form func(*Device, *oracleEnv) LaunchStats) (LaunchStats, Stats, []uint32) {
				d := testDevice()
				d.forceWorkers = workers
				e := newOracleEnv(t, d, n)
				defer e.free()
				d.ResetStats() // drop the uploads
				ls := form(d, e)
				return ls, d.Stats(), append(append([]uint32(nil), e.out.Host()...), e.hist.Host()...)
			}
			want, wantTotals, wantMem := run(1, k.runSync)
			if want.Stats.Instructions == 0 || want.Stats.WarpInstructions == 0 {
				t.Fatalf("oracle metered nothing: %+v", want)
			}
			forms := map[string]func(*Device, *oracleEnv) LaunchStats{"sync": k.runSync, "phased": k.runPhased}
			if len(k.steps) == 1 {
				forms["async"] = k.runAsync
			}
			for name, form := range forms {
				for _, workers := range []int{1, 3} {
					got, totals, mem := run(workers, form)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s, %d workers: LaunchStats differ from the Sync oracle:\n got %+v\nwant %+v", name, workers, got, want)
					}
					if totals != wantTotals {
						t.Errorf("%s, %d workers: device totals differ:\n got %+v\nwant %+v", name, workers, totals, wantTotals)
					}
					if !reflect.DeepEqual(mem, wantMem) {
						t.Errorf("%s, %d workers: kernel results differ from the Sync oracle", name, workers)
					}
				}
			}
		})
	}
}

// TestRegZeroAtBlockEntry pins what the recycled lane contexts must not
// leak: the register file a lane sees on entry is zero, in every block and
// every launch, although the async runner serves all lanes from one Thread
// and the phased runner carries its Threads over from the previous block.
func TestRegZeroAtBlockEntry(t *testing.T) {
	d := testDevice()
	d.forceWorkers = 1 // one scratch, reused by every block
	var dirty atomic.Int64
	for launch := 0; launch < 2; launch++ {
		d.MustLaunchPhased(LaunchConfig{Name: "reg_phased", Grid: 4, Block: 64}, 2, func(t *Thread, p int) bool {
			if p == 0 && t.Reg != [2]uint64{} {
				dirty.Add(1)
			}
			if p == 1 && t.Reg != [2]uint64{uint64(t.GlobalID()) + 1, ^uint64(0)} {
				dirty.Add(1)
			}
			t.Reg = [2]uint64{uint64(t.GlobalID()) + 1, ^uint64(0)}
			return p == 0
		})
		d.MustLaunch(LaunchConfig{Name: "reg_async", Grid: 4, Block: 64}, func(t *Thread) {
			if t.Reg != [2]uint64{} {
				dirty.Add(1)
			}
			t.Reg = [2]uint64{7, 7}
		})
	}
	if n := dirty.Load(); n != 0 {
		t.Errorf("%d lane invocations saw a register file that was not their own", n)
	}
}

// TestHelperPanicSurfacesOnLauncher: a kernel panic on a helper goroutine
// is re-raised on the goroutine that called Launch as a *par.PanicError
// carrying the helper's stack, after every other range has drained, and
// leaves the device usable.
func TestHelperPanicSurfacesOnLauncher(t *testing.T) {
	d := testDevice()
	d.forceWorkers = 4
	const grid, block, bad = 16, 32, 13 // block 13 is in the last helper's range, [12, 16)
	var ran atomic.Int64
	kernel := func(t *Thread) {
		if t.Block == bad {
			panic("boom")
		}
		ran.Add(1)
	}
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		d.MustLaunch(LaunchConfig{Name: "panics", Grid: grid, Block: block}, kernel)
	}()
	pe, ok := recovered.(*par.PanicError)
	if !ok || pe.Value != "boom" || !strings.Contains(string(pe.Stack), "runLanesAsync") {
		t.Fatalf("recovered %v on the launching goroutine, want a *par.PanicError of \"boom\" with the kernel's stack", recovered)
	}
	// The panic ends its own range (blocks 13-15); the other three ranges
	// and block 12 run to the end.
	if got, want := ran.Load(), int64((grid-3)*block); got != want {
		t.Errorf("%d lanes ran, want %d: the other ranges must drain", got, want)
	}
	if got := d.Stats().Kernels; got != 0 {
		t.Errorf("panicked launch was committed: Kernels = %d", got)
	}
	if n := d.inflight.Load(); n != 0 {
		t.Errorf("inflight = %d after a panicked launch", n)
	}
	ls := d.MustLaunch(LaunchConfig{Name: "after", Grid: grid, Block: block}, func(t *Thread) { t.Exec(1) })
	if ls.Stats.Instructions != grid*block {
		t.Errorf("launch after a panic metered %d instructions, want %d", ls.Stats.Instructions, grid*block)
	}
}

// TestFanoutRule pins the dispatch rule: inline below minFanoutLanes (in
// lane invocations, so phases count), inline when another launch is in
// flight, otherwise one goroutine per core but never more than blocks.
func TestFanoutRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	d := testDevice()
	big := minFanoutLanes / 256
	for _, c := range []struct {
		name                string
		grid, block, phases int
		alone               bool
		want                int
	}{
		{"small", big - 1, 256, 0, true, 1},
		{"large", big, 256, 0, true, 4},
		{"large, device busy", big, 256, 0, false, 1},
		{"small blocks, many phases", big / 8, 256, 8, true, 4},
		{"fewer blocks than cores", 2, minFanoutLanes / 2, 0, true, 2},
	} {
		sp := &launchSpec{LaunchConfig: LaunchConfig{Grid: c.grid, Block: c.block}, phases: c.phases}
		if got := d.fanout(sp, c.alone); got != c.want {
			t.Errorf("%s: fanout = %d, want %d", c.name, got, c.want)
		}
	}

	// A launch sees itself in flight, and a second one sees both.
	var seen [2]int32
	var wg sync.WaitGroup
	inner := make(chan struct{})
	wg.Add(1)
	d.MustLaunch(LaunchConfig{Name: "outer", Grid: 1, Block: 1}, func(*Thread) {
		seen[0] = d.inflight.Load()
		go func() {
			defer wg.Done()
			d.MustLaunch(LaunchConfig{Name: "inner", Grid: 1, Block: 1}, func(*Thread) { seen[1] = d.inflight.Load() })
			close(inner)
		}()
		<-inner
	})
	wg.Wait()
	if seen != [2]int32{1, 2} || d.inflight.Load() != 0 {
		t.Errorf("inflight seen by outer/inner launch = %v, after both %d; want [1 2], 0", seen, d.inflight.Load())
	}
}
