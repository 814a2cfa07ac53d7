package gpu

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"gsnp/internal/par"
)

// Device is a simulated GPU. It is safe for concurrent use; launches and
// copies serialise their accounting on an internal mutex while kernel
// threads execute in parallel on the host.
type Device struct {
	cfg Config

	mu        sync.Mutex
	totals    Stats
	simTime   float64
	allocated int64
	constUsed int
	nextBufID int64
	launches  []LaunchStats

	// gen tags launches with the stats generation they started under.
	// ResetStats advances it, and finishLaunch discards the device-total
	// commit of a launch from an older generation, so counters reset
	// between launches can never be polluted by in-flight work.
	gen uint64

	// inflight counts the launches currently executing; a launch that
	// finds another one running does not fan out (see fanout).
	inflight atomic.Int32
	// forceWorkers pins the host goroutine count of every launch,
	// bypassing the fanout rule (1 = always inline). Test seam: the
	// helper path must be exercisable on a one-core host and on launches
	// below minFanoutLanes.
	forceWorkers int

	// scratch and bufFree are the device-side arena of the recycle
	// component: scratch recycles per-block execution state (the lane
	// cursor, shared memory, per-lane side arrays) across launches, and
	// bufFree recycles buffer backing storage keyed by element size.
	// Steady-state launches and allocations touch neither the Go heap
	// nor the garbage collector.
	scratch []*blockScratch
	bufFree map[int64][]any
}

// NewDevice creates a simulated device. Zero fields of cfg are filled with
// M2050 defaults.
func NewDevice(cfg Config) *Device {
	return &Device{cfg: cfg.withDefaults()}
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns a snapshot of the cumulative counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.totals
	s.SimSeconds = d.simTime
	return s
}

// ResetStats zeroes the cumulative counters and the simulated clock.
// Allocations are unaffected. A launch in flight when ResetStats is called
// still returns its own LaunchStats but does not commit to the device
// totals: the reset defines a clean measurement origin.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.totals = Stats{}
	d.simTime = 0
	d.launches = d.launches[:0]
	d.gen++
}

// SimTime returns the simulated device-clock time consumed so far, in
// seconds.
func (d *Device) SimTime() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.simTime
}

// AllocatedBytes returns the current device-memory footprint.
func (d *Device) AllocatedBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocated
}

// Launches returns the per-launch records accumulated since the last
// ResetStats, oldest first.
func (d *Device) Launches() []LaunchStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]LaunchStats, len(d.launches))
	copy(out, d.launches)
	return out
}

// LaunchConfig describes the geometry and resources of one kernel launch.
type LaunchConfig struct {
	// Name labels the launch in profiler output.
	Name string
	// Grid is the number of blocks; Block the threads per block.
	Grid, Block int
	// SharedF64 and SharedU32 request per-block shared-memory arrays of
	// the given element counts. Their combined byte size must fit in
	// Config.SharedMemPerBlock.
	SharedF64 int
	SharedU32 int
	// Sync must be set when the kernel calls Thread.Sync. Synchronous
	// launches run each block's threads as goroutines joined by a cyclic
	// barrier; asynchronous launches run them sequentially (much faster
	// on the host). Kernels whose barrier structure is static should use
	// LaunchPhased instead, which needs no goroutines at all.
	Sync bool
}

// Kernel is the body executed once per simulated thread.
type Kernel func(t *Thread)

// PhasedKernel is the body of a barrier-structured kernel run by
// LaunchPhased: it is invoked once per thread per phase, with an implicit
// block-wide barrier between consecutive phases. Returning true means the
// lane reaches the barrier at the end of the phase (charged exactly like a
// Thread.Sync call); returning false retires the lane after the phase's
// work, with no further invocations or barrier charges — the analogue of
// returning from a Kernel body before the next __syncthreads. Per-lane
// state that must survive a barrier lives in Thread.Reg, the simulated
// register file. Lanes run sequentially within a phase, so a phased launch
// spawns no per-thread goroutines and allocates nothing in steady state.
type PhasedKernel func(t *Thread, phase int) bool

// Launch executes the kernel over cfg.Grid x cfg.Block threads, meters it,
// advances the simulated clock and returns the per-launch statistics.
func (d *Device) Launch(cfg LaunchConfig, kernel Kernel) (LaunchStats, error) {
	return d.launch(cfg, kernel, nil, 0)
}

// MustLaunch is Launch but panics on configuration errors; convenient for
// kernels whose geometry is computed and known valid.
func (d *Device) MustLaunch(cfg LaunchConfig, kernel Kernel) LaunchStats {
	ls, err := d.Launch(cfg, kernel)
	if err != nil {
		panic(err)
	}
	return ls
}

// LaunchPhased executes a barrier-structured kernel as a sequence of
// phases with an implicit block-wide barrier between them. Metering is
// identical to the equivalent Launch with LaunchConfig.Sync — each lane
// pays the Sync issue cost per barrier it reaches — but execution is
// sequential per block: no goroutines, no host barrier, no allocations.
func (d *Device) LaunchPhased(cfg LaunchConfig, phases int, kernel PhasedKernel) (LaunchStats, error) {
	if phases < 1 {
		return LaunchStats{}, fmt.Errorf("gpu: launch %q: phased launch needs at least 1 phase, got %d", cfg.Name, phases)
	}
	return d.launch(cfg, nil, kernel, phases)
}

// MustLaunchPhased is LaunchPhased but panics on configuration errors.
func (d *Device) MustLaunchPhased(cfg LaunchConfig, phases int, kernel PhasedKernel) LaunchStats {
	ls, err := d.LaunchPhased(cfg, phases, kernel)
	if err != nil {
		panic(err)
	}
	return ls
}

// launchSpec is one validated launch: its geometry and exactly one of the
// two kernel forms.
type launchSpec struct {
	LaunchConfig
	kernel Kernel
	phased PhasedKernel
	phases int
}

// minFanoutLanes is the launch size, in lane invocations (grid x block x
// phases), from which a launch is spread over the host's cores; anything
// smaller runs inline on the launching goroutine. BenchmarkFanoutBreakEven
// on the 2-core bench host, a cheap kernel (~8 ns a lane) inline against
// two goroutines: 16 K lanes 129 against 151-164 us, 64 K lanes 506
// against 374-384 us, 256 K lanes 2.02 against 1.19-1.25 ms. The
// break-even is near 32 K lanes, a launch of about 250 us: waking a parked
// core and joining the helper costs tens of microseconds, and when the
// host has taken the second core away the helper waits a millisecond or
// more. The constant sits at twice the break-even. At the bench's window
// size the output codec's launches over run values and run lengths (and
// every bitonic_global pass, when a column is sorted) fall below it; its
// launches over the window's sites and every kernel of the window pipeline
// are above it.
const minFanoutLanes = 1 << 16

// fanout decides how many host goroutines run the blocks of a launch. A
// launch fans out only when it is large (minFanoutLanes) and alone on the
// device: when several goroutines are launching — the concurrent column
// encoders of snpio.BlockWriter — they already occupy the cores, and
// helpers would only queue behind them.
func (d *Device) fanout(sp *launchSpec, alone bool) int {
	w := d.forceWorkers
	if w == 0 {
		w = 1
		if alone && sp.Grid*sp.Block*max(sp.phases, 1) >= minFanoutLanes {
			w = runtime.GOMAXPROCS(0)
		}
	}
	return min(w, sp.Grid)
}

// launch is the common body of Launch and LaunchPhased: exactly one of
// kernel and phased is non-nil.
func (d *Device) launch(cfg LaunchConfig, kernel Kernel, phased PhasedKernel, phases int) (LaunchStats, error) {
	if cfg.Grid <= 0 || cfg.Block <= 0 {
		return LaunchStats{}, fmt.Errorf("gpu: launch %q: invalid geometry %dx%d", cfg.Name, cfg.Grid, cfg.Block)
	}
	if cfg.Block%d.cfg.WarpSize != 0 && cfg.Block > d.cfg.WarpSize {
		// Allowed on real hardware but wasteful; we only require that a
		// block is either a multiple of the warp size or smaller than one
		// warp, which keeps the warp decomposition unambiguous.
		return LaunchStats{}, fmt.Errorf("gpu: launch %q: block size %d is neither <= warp size nor a multiple of it", cfg.Name, cfg.Block)
	}
	if shBytes := cfg.SharedF64*8 + cfg.SharedU32*4; shBytes > d.cfg.SharedMemPerBlock {
		return LaunchStats{}, fmt.Errorf("gpu: launch %q: %d B shared memory requested, %d B available", cfg.Name, shBytes, d.cfg.SharedMemPerBlock)
	}

	d.mu.Lock()
	gen := d.gen
	d.mu.Unlock()

	alone := d.inflight.Add(1) == 1
	defer d.inflight.Add(-1)

	sp := &launchSpec{LaunchConfig: cfg, kernel: kernel, phased: phased, phases: phases}
	var acc launchAccumulator
	if workers := d.fanout(sp, alone); workers <= 1 {
		d.runRange(sp, 0, cfg.Grid, &acc)
	} else {
		// Static contiguous block ranges, one private accumulator each.
		// The launching goroutine takes range 0 (and with it block 0, the
		// coalescing sample); the accumulators are merged after the join,
		// in range order. A kernel panic ends its own range and is re-raised
		// here once the other ranges have drained.
		accs := make([]launchAccumulator, workers)
		par.Range(cfg.Grid, workers, func(w, lo, hi int) { d.runRange(sp, lo, hi, &accs[w]) })
		for w := range accs {
			acc.merge(&accs[w])
		}
	}

	ls := d.finishLaunch(cfg, &acc, gen)
	return ls, nil
}

// launchAccumulator gathers counters and the coalescing sample across the
// blocks one host goroutine ran. It is owned by that goroutine; the
// launcher merges the helpers' accumulators after joining them.
type launchAccumulator struct {
	stats        Stats
	sampleTrans  int64 // transactions observed in the sample block
	sampleWarpMI int64 // warp memory instructions observed in the sample block
}

func (a *launchAccumulator) merge(o *launchAccumulator) {
	a.stats.Add(o.stats)
	a.sampleTrans += o.sampleTrans
	a.sampleWarpMI += o.sampleWarpMI
}

// blockScratch is the recycled per-block execution state. A barrier-free
// kernel runs through cur, the lane cursor: one Thread stepped through all
// lanes of the block, where only the issued-instruction count (instr, for
// the warp accounting) and the coalescing-sample stream of block 0 are kept
// per lane. Kernels with barriers suspend every lane at every barrier, so
// they get a Thread per lane (lanes): the phased runner walks them in
// lockstep, the Sync runner gives each its goroutine. One scratch serves
// one host goroutine at a time and returns to the device free-list after
// the launch, so steady-state launches allocate nothing. Everything a
// scratch owns — the Thread a kernel is handed included — is valid only
// while its block runs; nothing may escape the launch.
type blockScratch struct {
	rt      blockRT
	cur     Thread
	instr   []int64
	samples [][]int64

	lanes []Thread
	// lanesSet reports that the block-invariant fields of lanes hold this
	// launch's values; runRange clears it when it takes the scratch.
	lanesSet bool
	retired  []bool
	bar      *barrier
}

// getScratch pops a recycled block scratch, or makes an empty one.
func (d *Device) getScratch() *blockScratch {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n := len(d.scratch); n > 0 {
		sc := d.scratch[n-1]
		d.scratch[n-1] = nil
		d.scratch = d.scratch[:n-1]
		return sc
	}
	return &blockScratch{}
}

// putScratch returns a scratch to the free-list for the next launch.
func (d *Device) putScratch(sc *blockScratch) {
	d.mu.Lock()
	d.scratch = append(d.scratch, sc)
	d.mu.Unlock()
}

// grow returns s with length n, reusing capacity when possible. Contents
// are unspecified; callers clear or overwrite as their semantics require.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// runRange runs blocks [lo, hi) of the launch on one recycled scratch.
func (d *Device) runRange(sp *launchSpec, lo, hi int, acc *launchAccumulator) {
	sc := d.getScratch()
	defer d.putScratch(sc)
	sc.lanesSet = false
	for bid := lo; bid < hi; bid++ {
		d.runBlock(sp, bid, acc, sc)
	}
}

// runBlock executes one block of the launch on the recycled scratch.
func (d *Device) runBlock(sp *launchSpec, bid int, acc *launchAccumulator, sc *blockScratch) {
	rt := &sc.rt
	rt.dev = d
	// Blocks observe freshly zeroed shared memory, exactly as the
	// per-block make calls used to guarantee.
	rt.sharedF64 = grow(rt.sharedF64, sp.SharedF64)
	clear(rt.sharedF64)
	rt.sharedU32 = grow(rt.sharedU32, sp.SharedU32)
	clear(rt.sharedU32)

	n := sp.Block
	sc.instr = grow(sc.instr, n)
	// Block 0 is the coalescing sample, as in a sampling profiler.
	sampling := bid == 0
	if sampling {
		for len(sc.samples) < n {
			sc.samples = append(sc.samples, make([]int64, 0, 256))
		}
		for l := range sc.samples[:n] {
			sc.samples[l] = sc.samples[l][:0]
		}
	}

	var s Stats
	switch {
	case sp.phased != nil:
		d.resetLanes(sp, bid, sc, sampling)
		runLanesPhased(sp, sc)
		s = sumLanes(sc, sampling)
	case sp.Sync:
		d.resetLanes(sp, bid, sc, sampling)
		runLanesSync(sp.kernel, sc)
		s = sumLanes(sc, sampling)
	default:
		sc.cur = Thread{Dev: d, Block: bid, BlockDim: n, GridDim: sp.Grid, block: rt}
		runLanesAsync(sp.kernel, sc, n, sampling)
		t := &sc.cur
		s = Stats{
			GlobalLoads: t.gld, GlobalStores: t.gst,
			GlobalLoadBytes: t.gldB, GlobalStoreBytes: t.gstB,
			SharedLoads: t.sld, SharedStores: t.sst,
			ConstLoads: t.cld,
		}
	}

	// SIMT issue accounting: a warp occupies its issue slots for as long
	// as its longest-running lane.
	ws := d.cfg.WarpSize
	var instr, warpInstr int64
	for w0 := 0; w0 < n; w0 += ws {
		var maxInstr int64
		for _, in := range sc.instr[w0:min(w0+ws, n)] {
			instr += in
			maxInstr = max(maxInstr, in)
		}
		warpInstr += maxInstr
	}
	s.Instructions, s.WarpInstructions = instr, warpInstr
	acc.stats.Add(s)
	if sampling {
		trans, warpMI := d.coalesce(sc.samples[:n])
		acc.sampleTrans += trans
		acc.sampleWarpMI += warpMI
	}
}

// runLanesAsync runs a barrier-free kernel over the lanes of one block, in
// lane order, through the cursor: the block-invariant fields were set by
// the caller, Lane is stepped here, and the sum-only counters simply keep
// counting across lanes.
func runLanesAsync(kernel Kernel, sc *blockScratch, n int, sampling bool) {
	t := &sc.cur
	for l := 0; l < n; l++ {
		t.Lane = l
		t.Reg = [2]uint64{}
		t.instr = 0
		if sampling {
			t.sample = sc.samples[l]
		}
		kernel(t)
		sc.instr[l] = t.instr
		if sampling {
			sc.samples[l] = t.sample
		}
	}
}

// resetLanes readies one Thread per lane for a block of a kernel with
// barriers. The block-invariant fields are written once per range; a block
// then costs a dozen stores a lane, not a copy of the whole context.
func (d *Device) resetLanes(sp *launchSpec, bid int, sc *blockScratch, sampling bool) {
	if !sc.lanesSet {
		sc.lanes = grow(sc.lanes, sp.Block)
		for l := range sc.lanes {
			sc.lanes[l] = Thread{Dev: d, Lane: l, BlockDim: sp.Block, GridDim: sp.Grid, block: &sc.rt}
		}
		sc.lanesSet = true
	}
	for l := range sc.lanes {
		t := &sc.lanes[l]
		t.Block = bid
		t.Reg = [2]uint64{}
		t.instr, t.gld, t.gst, t.gldB, t.gstB, t.sld, t.sst, t.cld = 0, 0, 0, 0, 0, 0, 0, 0
		t.sample = nil
		if sampling {
			t.sample = sc.samples[l]
		}
	}
}

// sumLanes collects what the lanes of a finished block metered: the
// per-lane instruction counts and sample streams into the scratch's side
// arrays, the sum-only counters into the returned Stats.
func sumLanes(sc *blockScratch, sampling bool) Stats {
	var s Stats
	for l := range sc.lanes {
		t := &sc.lanes[l]
		sc.instr[l] = t.instr
		s.GlobalLoads += t.gld
		s.GlobalStores += t.gst
		s.GlobalLoadBytes += t.gldB
		s.GlobalStoreBytes += t.gstB
		s.SharedLoads += t.sld
		s.SharedStores += t.sst
		s.ConstLoads += t.cld
		if sampling {
			sc.samples[l] = t.sample
		}
	}
	return s
}

// runLanesPhased runs a phased kernel in sequential lockstep: all live
// lanes run phase p before any lane sees phase p+1 — the barrier is the
// iteration order. A lane returning true pays the barrier cost it just
// arrived at; a lane returning false retires silently, like a kernel body
// returning.
func runLanesPhased(sp *launchSpec, sc *blockScratch) {
	lanes := sc.lanes
	sc.retired = grow(sc.retired, len(lanes))
	retired := sc.retired
	clear(retired)
	alive := len(lanes)
	for p := 0; p < sp.phases && alive > 0; p++ {
		for l := range lanes {
			if retired[l] {
				continue
			}
			t := &lanes[l]
			if sp.phased(t, p) {
				t.instr += syncCost
			} else {
				retired[l] = true
				alive--
			}
		}
	}
}

// runLanesSync runs a Thread.Sync kernel with one goroutine per lane (par.Do
// runs its shards concurrently), meeting at a cyclic barrier. No production
// kernel uses it; it stays as the accounting oracle the other two runners
// are tested against.
func runLanesSync(kernel Kernel, sc *blockScratch) {
	if sc.bar == nil {
		sc.bar = newBarrier(len(sc.lanes))
	} else {
		sc.bar.reset(len(sc.lanes))
	}
	sc.rt.bar = sc.bar
	defer func() { sc.rt.bar = nil }()
	par.Do(len(sc.lanes), func(l int) {
		defer sc.bar.leave()
		kernel(&sc.lanes[l])
	})
}

// coalesce analyses the sampled global-access address streams of one block,
// one stream per lane. The k-th access of each lane in a warp forms one SIMT memory instruction;
// its cost is the number of distinct SegmentBytes-sized segments touched.
func (d *Device) coalesce(samples [][]int64) (transactions, warpMemInst int64) {
	ws := d.cfg.WarpSize
	seg := int64(d.cfg.SegmentBytes)
	for w0 := 0; w0 < len(samples); w0 += ws {
		warp := samples[w0:min(w0+ws, len(samples))]
		maxLen := 0
		for _, lane := range warp {
			maxLen = max(maxLen, len(lane))
		}
		var segs [64]int64 // distinct segments of one warp instruction
		for k := 0; k < maxLen; k++ {
			n := 0
			for _, lane := range warp {
				if k >= len(lane) {
					continue
				}
				s := lane[k] / seg
				dup := false
				for i := 0; i < n; i++ {
					if segs[i] == s {
						dup = true
						break
					}
				}
				if !dup {
					segs[n] = s
					n++
				}
			}
			if n > 0 {
				transactions += int64(n)
				warpMemInst++
			}
		}
	}
	return transactions, warpMemInst
}

// finishLaunch extrapolates the coalescing sample, applies the timing model
// and commits the launch to the device totals — unless a ResetStats landed
// after the launch started, in which case the totals commit is dropped and
// only the per-launch record is returned to the caller.
func (d *Device) finishLaunch(cfg LaunchConfig, acc *launchAccumulator, gen uint64) LaunchStats {
	s := acc.stats
	s.Kernels = 1
	ws := float64(d.cfg.WarpSize)

	accesses := s.GlobalLoads + s.GlobalStores
	factor := 0.0
	if accesses > 0 {
		if acc.sampleWarpMI > 0 {
			factor = float64(acc.sampleTrans) / float64(acc.sampleWarpMI)
		} else {
			// No sample (block 0 made no global accesses but others did):
			// assume the worst case, full scatter.
			factor = ws
		}
		s.GlobalTransactions = int64(math.Ceil(float64(accesses) / ws * factor))
	}

	// Compute leg: every SM issues one warp instruction per cycle, so the
	// device retires SMs warp-instructions per cycle. For perfectly
	// balanced warps this equals thread-instructions / total cores; for
	// divergent or imbalanced warps it is correctly larger.
	compute := float64(s.WarpInstructions) / (float64(d.cfg.SMs) * d.cfg.ClockHz)
	memory := float64(s.GlobalTransactions) * float64(d.cfg.SegmentBytes) / d.cfg.PeakBandwidth
	s.SimSeconds = math.Max(compute, memory) + d.cfg.LaunchOverhead

	ls := LaunchStats{
		Name:             cfg.Name,
		Grid:             cfg.Grid,
		Block:            cfg.Block,
		Stats:            s,
		CoalescingFactor: factor,
		ComputeSeconds:   compute,
		MemorySeconds:    memory,
	}

	d.mu.Lock()
	if d.gen == gen {
		d.totals.Add(s)
		d.simTime += s.SimSeconds
		d.launches = append(d.launches, ls)
	}
	d.mu.Unlock()
	return ls
}

// advanceCopy accounts for a host<->device copy of n bytes.
func (d *Device) advanceCopy(n int64, toDevice bool) {
	t := float64(n) / d.cfg.PCIeBandwidth
	d.mu.Lock()
	if toDevice {
		d.totals.H2DBytes += n
	} else {
		d.totals.D2HBytes += n
	}
	d.simTime += t
	d.totals.SimSeconds += t
	d.mu.Unlock()
}

// blockRT is the per-block runtime state: shared memory and the barrier.
type blockRT struct {
	dev       *Device
	sharedF64 []float64
	sharedU32 []uint32
	bar       *barrier
}

// barrier is a cyclic barrier that tolerates threads exiting early (a
// returning thread leaves the party set, as CUDA requires __syncthreads to
// be reached by all *remaining* threads of the block in our relaxed model).
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	waiting int
	gen     uint64
}

func newBarrier(parties int) *barrier {
	b := &barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// reset re-arms a recycled barrier for the next block. The caller owns the
// barrier exclusively (the previous block's threads have all joined), so
// no locking is needed.
func (b *barrier) reset(parties int) {
	b.parties = parties
	b.waiting = 0
}

func (b *barrier) await() {
	b.mu.Lock()
	gen := b.gen
	b.waiting++
	if b.waiting >= b.parties {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

func (b *barrier) leave() {
	b.mu.Lock()
	b.parties--
	if b.waiting >= b.parties && b.parties > 0 {
		b.waiting = 0
		b.gen++
		b.cond.Broadcast()
	}
	b.mu.Unlock()
}
