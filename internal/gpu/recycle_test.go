package gpu

import (
	"testing"
)

// TestDoubleFreeGuard pins the idempotent Free semantics: a second Free of
// the same buffer must not disturb the device accounting, must not alias
// the recycled storage into two later allocations, and is counted in
// Stats.DoubleFrees.
func TestDoubleFreeGuard(t *testing.T) {
	d := testDevice()
	b := Alloc[uint32](d, 1024)
	if got := d.AllocatedBytes(); got != 4096 {
		t.Fatalf("allocated %d B, want 4096", got)
	}
	b.Free()
	if got := d.AllocatedBytes(); got != 0 {
		t.Fatalf("after Free: allocated %d B, want 0", got)
	}
	b.Free()
	if got := d.AllocatedBytes(); got != 0 {
		t.Errorf("after double Free: allocated %d B, want 0", got)
	}
	if got := d.Stats().DoubleFrees; got != 1 {
		t.Errorf("DoubleFrees = %d, want 1", got)
	}

	// The dangerous consequence a free-list introduces: a double push
	// would hand the same backing array to two live buffers. Two fresh
	// allocations after the double Free must not alias.
	x := Alloc[uint32](d, 1024)
	y := Alloc[uint32](d, 1024)
	if &x.Host()[0] == &y.Host()[0] {
		t.Fatal("double Free pushed the storage twice: two live buffers alias one array")
	}
	x.Free()
	y.Free()

	cb, err := NewConst(d, []uint8{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	cb.Free()
	cb.Free()
	if got := d.Stats().DoubleFrees; got != 2 {
		t.Errorf("DoubleFrees after ConstBuffer double Free = %d, want 2", got)
	}
}

// TestBufferRecycling pins the device free-list: a freed buffer's backing
// storage must be reused by the next same-type allocation that fits, and
// it must come back zeroed, indistinguishable from a fresh cudaMalloc.
func TestBufferRecycling(t *testing.T) {
	d := testDevice()
	a := Alloc[uint32](d, 1000)
	a.Host()[0] = 42
	a.Host()[999] = 7
	p := &a.Host()[0]
	a.Free()

	b := Alloc[uint32](d, 1000)
	if &b.Host()[0] != p {
		t.Error("equal-size Alloc after Free did not recycle the backing storage")
	}
	for i, v := range b.Host() {
		if v != 0 {
			t.Fatalf("recycled storage not zeroed at %d: %d", i, v)
		}
	}
	b.Free()

	// A smaller request fits in the recycled capacity too.
	c := Alloc[uint32](d, 500)
	if &c.Host()[0] != p {
		t.Error("smaller Alloc did not reuse the recycled storage")
	}
	if c.Len() != 500 {
		t.Errorf("recycled buffer has length %d, want 500", c.Len())
	}
	c.Free()

	// A different element type of the same byte size must not steal the
	// entry.
	f := Alloc[float32](d, 1000)
	g := Alloc[uint32](d, 1000)
	if &g.Host()[0] != p {
		t.Error("recycled uint32 storage lost to a float32 allocation of the same size class")
	}
	f.Free()
	g.Free()
}

// TestLaunchSteadyStateAllocs gates the per-launch recycling of the block
// scratch (thread contexts, shared memory, coalescing samples): warm
// launches of all three kernel forms must allocate almost nothing. The
// legacy Sync form still spawns one goroutine per thread, so only the
// async and phased forms are bounded tightly.
func TestLaunchSteadyStateAllocs(t *testing.T) {
	d := testDevice()
	buf := Alloc[uint32](d, 4096)
	defer buf.Free()

	async := func() {
		d.MustLaunch(LaunchConfig{Name: "warm_async", Grid: 16, Block: 256}, func(t *Thread) {
			i := t.GlobalID()
			St(t, buf, i, Ld(t, buf, i)+1)
		})
	}
	phased := func() {
		d.MustLaunchPhased(LaunchConfig{Name: "warm_phased", Grid: 16, Block: 256, SharedU32: 256}, 3, func(b *Block, p int) {
			lanes := b.Lanes()
			for l := range lanes {
				t := &lanes[l]
				switch p {
				case 0:
					t.SetSharedU32(l, Ld(t, buf, t.GlobalID()))
				case 1:
					t.Exec(1)
				default:
					St(t, buf, t.GlobalID(), t.SharedU32(l))
					t.Retire()
				}
			}
		})
	}
	async()
	phased()
	if got := testing.AllocsPerRun(10, async); got > 8 {
		t.Errorf("steady-state async launch allocates %.1f times (gate: 8)", got)
	}
	if got := testing.AllocsPerRun(10, phased); got > 8 {
		t.Errorf("steady-state phased launch allocates %.1f times (gate: 8)", got)
	}
}

// TestPhasedMatchesSyncAccounting pins the metering equivalence the phased
// execution model is built on: the same barrier-structured kernel written
// as a BlockKernel and as a goroutine-per-thread Sync kernel must produce
// identical counters — including lanes that retire before the last
// barrier, which pay for the barriers they reached and nothing more.
func TestPhasedMatchesSyncAccounting(t *testing.T) {
	run := func(d *Device) (phased, legacy LaunchStats) {
		phased = d.MustLaunchPhased(LaunchConfig{Name: "p", Grid: 2, Block: 64, SharedU32: 64}, 3, func(b *Block, p int) {
			lanes := b.Lanes()
			for l := range lanes {
				t := &lanes[l]
				if t.Retired() {
					continue
				}
				switch p {
				case 0:
					t.SetSharedU32(l, uint32(l))
					if l >= 32 {
						t.Retire() // upper half retires before the first barrier
					}
				case 1:
					t.Exec(1)
				default:
					t.Exec(2)
					t.Retire()
				}
			}
		})
		legacy = d.MustLaunch(LaunchConfig{Name: "s", Grid: 2, Block: 64, SharedU32: 64, Sync: true}, func(t *Thread) {
			t.SetSharedU32(t.Lane, uint32(t.Lane))
			if t.Lane >= 32 {
				return
			}
			t.Sync()
			t.Exec(1)
			t.Sync()
			t.Exec(2)
		})
		return phased, legacy
	}
	p, s := run(testDevice())
	if p.Stats.Instructions != s.Stats.Instructions {
		t.Errorf("Instructions: phased %d, sync %d", p.Stats.Instructions, s.Stats.Instructions)
	}
	if p.Stats.WarpInstructions != s.Stats.WarpInstructions {
		t.Errorf("WarpInstructions: phased %d, sync %d", p.Stats.WarpInstructions, s.Stats.WarpInstructions)
	}
	if p.Stats.SharedStores != s.Stats.SharedStores {
		t.Errorf("SharedStores: phased %d, sync %d", p.Stats.SharedStores, s.Stats.SharedStores)
	}
	if p.Stats.SimSeconds != s.Stats.SimSeconds {
		t.Errorf("SimSeconds: phased %g, sync %g", p.Stats.SimSeconds, s.Stats.SimSeconds)
	}
	// Exact expected count: all 128 lanes pay 1 (shared store); the 64
	// surviving lanes add 2 barriers (16 each) + 1 + 2 = 35 more.
	want := int64(128*1 + 64*35)
	if p.Stats.Instructions != want {
		t.Errorf("Instructions = %d, want %d", p.Stats.Instructions, want)
	}
}

// TestLaunchPhasedValidation covers the phased-specific error paths.
func TestLaunchPhasedValidation(t *testing.T) {
	d := testDevice()
	if _, err := d.LaunchPhased(LaunchConfig{Name: "bad", Grid: 1, Block: 32}, 0, func(*Block, int) {}); err == nil {
		t.Error("LaunchPhased with 0 phases did not error")
	}
	if _, err := d.LaunchPhased(LaunchConfig{Name: "bad", Grid: 0, Block: 32}, 1, func(*Block, int) {}); err == nil {
		t.Error("LaunchPhased with bad geometry did not error")
	}
	// Retire belongs to the phased runner: a barrier-free kernel returns
	// instead, and the call must not silently skew its metering.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Thread.Retire inside a barrier-free kernel did not panic")
			}
		}()
		d.MustLaunch(LaunchConfig{Name: "bad", Grid: 1, Block: 32}, func(t *Thread) { t.Retire() })
	}()
	// Sync inside a phased kernel is a contract violation (the barrier is
	// implicit between phases) and must panic like async launches do.
	defer func() {
		if recover() == nil {
			t.Error("Thread.Sync inside a phased kernel did not panic")
		}
	}()
	d.MustLaunchPhased(LaunchConfig{Name: "bad", Grid: 1, Block: 32}, 1, func(b *Block, p int) {
		lanes := b.Lanes()
		lanes[0].Sync()
	})
}

// TestResetStatsInFlightLaunch pins the accumulator handoff: a ResetStats
// issued while a launch is mid-flight must produce a clean zero origin —
// the in-flight launch still returns its own LaunchStats but may not
// commit them to the device totals afterwards. The kernel blocks on a
// channel so the interleaving is deterministic; run with -race this also
// exercises the locking of the handoff.
func TestResetStatsInFlightLaunch(t *testing.T) {
	// Inline, and with the gated block on a helper goroutine.
	for _, workers := range []int{1, 2} {
		testResetStatsInFlight(t, workers)
	}
}

func testResetStatsInFlight(t *testing.T, workers int) {
	d := testDevice()
	d.forceWorkers = workers
	started := make(chan struct{})
	release := make(chan struct{})
	var ls LaunchStats
	done := make(chan struct{})
	go func() {
		defer close(done)
		ls = d.MustLaunch(LaunchConfig{Name: "gated", Grid: workers, Block: 1}, func(t *Thread) {
			t.Exec(3)
			if t.Block == workers-1 {
				close(started)
			}
			<-release
		})
	}()
	<-started
	d.ResetStats()
	close(release)
	<-done

	if got := ls.Stats.Instructions; got != int64(3*workers) {
		t.Errorf("in-flight launch returned Instructions=%d, want %d", got, 3*workers)
	}
	after := d.Stats()
	if after.Kernels != 0 || after.Instructions != 0 {
		t.Errorf("in-flight launch leaked into reset totals: kernels=%d inst=%d", after.Kernels, after.Instructions)
	}
	if n := len(d.Launches()); n != 0 {
		t.Errorf("in-flight launch appended %d launch records after ResetStats", n)
	}
	if got := d.SimTime(); got != 0 {
		t.Errorf("in-flight launch advanced the reset clock to %g", got)
	}

	// A fresh launch after the reset accumulates normally.
	d.MustLaunch(LaunchConfig{Name: "next", Grid: 1, Block: 1}, func(t *Thread) { t.Exec(1) })
	if got := d.Stats().Kernels; got != 1 {
		t.Errorf("post-reset launch count = %d, want 1", got)
	}
}
