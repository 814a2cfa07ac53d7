package gpu

import (
	"reflect"
	"sync/atomic"
	"testing"
)

// TestLocalZeroAtThreadStart pins what local memory promises a kernel: every
// word reads zero when a thread starts — in every lane and block, in the
// next launch on the same recycled scratch (at a smaller and a larger
// LocalU32 too), inline and over helper goroutines, and after a lane that
// panicked halfway through its stores.
func TestLocalZeroAtThreadStart(t *testing.T) {
	for _, workers := range []int{1, 2} {
		d := testDevice()
		d.forceWorkers = workers
		var dirty, ran atomic.Int64
		scribble := func(words int, panicAt int) Kernel {
			return func(t *Thread) {
				ran.Add(1)
				for i := 0; i < words; i++ {
					if t.LocalU32(i) != 0 {
						dirty.Add(1)
					}
				}
				for i := t.Lane % 3; i < words; i += 2 {
					t.SetLocalU32(i, uint32(t.GlobalID()+1))
					if t.GlobalID() == panicAt && i > words/2 {
						panic("lane fault")
					}
				}
				t.SetLocalU32(words-1, 0) // a zero store leaves nothing behind either
			}
		}
		for _, words := range []int{40, 8, 200} {
			d.MustLaunch(LaunchConfig{Name: "scribble", Grid: 6, Block: 64, LocalU32: words}, scribble(words, -1))
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d: the faulting lane did not panic", workers)
				}
			}()
			// The fault is in the last block, so with two workers it
			// strikes the helper's scratch.
			d.MustLaunch(LaunchConfig{Name: "fault", Grid: 6, Block: 64, LocalU32: 200}, scribble(200, 5*64+17))
		}()
		ran.Store(0)
		d.MustLaunch(LaunchConfig{Name: "after", Grid: 6, Block: 64, LocalU32: 120}, scribble(120, -1))
		if ran.Load() != 6*64 {
			t.Errorf("workers=%d: %d lanes ran after the fault, want %d", workers, ran.Load(), 6*64)
		}
		if n := dirty.Load(); n != 0 {
			t.Errorf("workers=%d: %d words of local memory were not zero when their thread started", workers, n)
		}
	}
}

// TestLocalNeedsBarrierFreeLaunch: a phased or Sync launch runs every lane
// of a block at once, and the simulator keeps one lane's local memory per
// block, so asking either for local memory is a launch error — as is a
// negative size.
func TestLocalNeedsBarrierFreeLaunch(t *testing.T) {
	d := testDevice()
	if _, err := d.LaunchPhased(LaunchConfig{Name: "phased", Grid: 1, Block: 32, LocalU32: 4}, 2, func(*Block, int) {}); err == nil {
		t.Error("a phased launch with local memory was accepted")
	}
	if _, err := d.Launch(LaunchConfig{Name: "sync", Grid: 1, Block: 32, LocalU32: 4, Sync: true}, func(*Thread) {}); err == nil {
		t.Error("a Sync launch with local memory was accepted")
	}
	if _, err := d.Launch(LaunchConfig{Name: "negative", Grid: 1, Block: 32, LocalU32: -1}, func(*Thread) {}); err == nil {
		t.Error("a negative local memory size was accepted")
	}
	if got := d.Stats().Kernels; got != 0 {
		t.Errorf("rejected launches ran: Kernels = %d", got)
	}
}

// TestLocalMetersAsGlobalBuffer pins the accounting of local memory: a
// kernel keeping a per-thread histogram in local memory meters exactly as
// the same kernel keeping it in its own slice of a Grid·Block·LocalU32
// global buffer — every counter, the warp issue slots, the coalescing
// sample of block 0 and the simulated time — and computes the same thing,
// inline and fanned out.
func TestLocalMetersAsGlobalBuffer(t *testing.T) {
	const grid, block, words = 9, 64, 24
	run := func(workers int, global bool) (LaunchStats, []uint32) {
		d := testDevice()
		d.forceWorkers = workers
		out := Alloc[uint32](d, grid*block)
		defer out.Free()
		var buf *Buffer[uint32]
		if global {
			buf = Alloc[uint32](d, grid*block*words)
			defer buf.Free()
		}
		cfg := LaunchConfig{Name: "histogram", Grid: grid, Block: block}
		if !global {
			cfg.LocalU32 = words
		}
		ls := d.MustLaunch(cfg, func(t *Thread) {
			id := t.GlobalID()
			base := id * words
			var top uint32
			for k := 0; k < 3+id%11; k++ {
				slot := (id*7 + k*k) % words
				var c uint32
				if global {
					c = Ld(t, buf, base+slot) + 1
					St(t, buf, base+slot, c)
				} else {
					c = t.LocalU32(slot) + 1
					t.SetLocalU32(slot, c)
				}
				t.Exec(2)
				top = max(top, c)
			}
			St(t, out, id, top)
		})
		return ls, append([]uint32(nil), out.Host()...)
	}
	for _, workers := range []int{1, 3} {
		want, wantOut := run(workers, true)
		got, gotOut := run(workers, false)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: local-memory LaunchStats differ from the global buffer's:\n got %+v\nwant %+v", workers, got, want)
		}
		if !reflect.DeepEqual(gotOut, wantOut) {
			t.Errorf("%d workers: local-memory kernel computed a different result", workers)
		}
	}
}

// TestPeakBytes: the high-water mark counts every buffer that was live at
// once, after all of them are freed, and ResetPeak restarts it at the
// current footprint.
func TestPeakBytes(t *testing.T) {
	d := testDevice()
	a := Alloc[uint32](d, 1000)
	b := Alloc[float64](d, 500)
	a.Free()
	b.Free()
	c := Alloc[uint32](d, 100)
	if got := d.PeakBytes(); got != 4000+4000 {
		t.Errorf("PeakBytes = %d after two live buffers were freed, want %d", got, 8000)
	}
	d.ResetPeak()
	if got := d.PeakBytes(); got != 400 {
		t.Errorf("PeakBytes = %d right after ResetPeak, want the live 400", got)
	}
	c.Free()
}
