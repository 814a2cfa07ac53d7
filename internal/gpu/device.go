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
	peak      int64 // high-water mark of allocated since ResetPeak
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

	// scratch, samples and bufFree are the device-side arena of the
	// recycle component: scratch recycles per-block execution state (the
	// lane cursor, shared memory, per-lane side arrays) across launches,
	// samples the per-lane coalescing-sample streams of block 0 — one set
	// per launch whose block 0 is running, whichever goroutine and scratch
	// run it — and bufFree buffer backing storage keyed by element size.
	// Steady-state launches and allocations touch neither the Go heap
	// nor the garbage collector.
	scratch []*blockScratch
	samples [][][]int64
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

// PeakBytes returns the largest device-memory footprint reached since the
// device was made or ResetPeak last ran: every buffer that was ever live at
// once counts, however briefly.
func (d *Device) PeakBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// ResetPeak starts a new high-water measurement at the current footprint.
func (d *Device) ResetPeak() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.peak = d.allocated
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
	// LocalU32 requests that many words of per-thread local memory
	// (Thread.LocalU32), zero when the thread starts. Only a barrier-free
	// Launch may request it: the lanes of a phased or Sync launch are alive
	// at once, and the simulator keeps one lane's local memory per block.
	LocalU32 int
	// Sync must be set when the kernel calls Thread.Sync. Synchronous
	// launches run each block's threads as goroutines joined by a cyclic
	// barrier; asynchronous launches run them sequentially (much faster
	// on the host). Kernels whose barrier structure is static should use
	// LaunchPhased instead, which needs no goroutines at all.
	Sync bool
}

// Kernel is the body executed once per simulated thread.
type Kernel func(t *Thread)

// BlockKernel is the body of a barrier-structured kernel run by
// LaunchPhased: it is called once per block per phase and does every live
// lane's work of that phase itself. An implicit block-wide barrier
// separates consecutive calls. The block-wide primitives of b charge ranges
// of lanes at once; b.Lanes() and b.Lane(l) hand out the per-lane Thread
// form, metering each access on the lane that makes it. A lane's Thread is
// readied the first time the block asks for it — zero registers and
// counters — and keeps its state through the block's later calls, so
// per-lane state that must survive a barrier lives in Thread.Reg, the
// simulated register file; a kernel that never asks for a Thread costs the
// host none. A lane that is still live when the call returns reaches that
// barrier and is charged for it exactly like a Thread.Sync call; a lane
// the body retires (b.Retire, Thread.Retire) leaves after the phase's
// work, with no barrier charges from then on — the analogue of returning
// from a Kernel body before the next __syncthreads — and the body must not
// run it again. A call may do the work of several consecutive phases at
// once when a primitive passes the barriers between them
// (BitonicNetworkU32 runs a whole network, a phase per step); the block's
// next call then comes at the phase after the last of them, so phase
// counts barriers passed, not calls. A phased launch spawns no per-thread
// goroutines and allocates nothing in steady state.
type BlockKernel func(b *Block, phase int)

// WideKernel is the body of a barrier-free kernel charged a block at a
// time, run by LaunchWide: it is called once per block and does every lane's
// work through the block-wide primitives (LdWide, StWide, Block.Exec, ...),
// each of which charges a range of lanes in one update per counter, the
// issued instructions to each lane and, in block 0, each lane's coalescing
// sample in its own order. It suits kernels whose lanes make one access or
// a few each; a kernel whose lanes gather a varying number of elements runs
// through the lane cursor (Launch) instead.
type WideKernel func(b *Block)

// Launch executes the kernel over cfg.Grid x cfg.Block threads, meters it,
// advances the simulated clock and returns the per-launch statistics.
func (d *Device) Launch(cfg LaunchConfig, kernel Kernel) (LaunchStats, error) {
	return d.launch(&launchSpec{LaunchConfig: cfg, kernel: kernel})
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
// sequential per block: one kernel call per block and phase, no
// goroutines, no host barrier, no allocations.
func (d *Device) LaunchPhased(cfg LaunchConfig, phases int, kernel BlockKernel) (LaunchStats, error) {
	if phases < 1 {
		return LaunchStats{}, fmt.Errorf("gpu: launch %q: phased launch needs at least 1 phase, got %d", cfg.Name, phases)
	}
	return d.launch(&launchSpec{LaunchConfig: cfg, phased: kernel, phases: phases})
}

// MustLaunchPhased is LaunchPhased but panics on configuration errors.
func (d *Device) MustLaunchPhased(cfg LaunchConfig, phases int, kernel BlockKernel) LaunchStats {
	ls, err := d.LaunchPhased(cfg, phases, kernel)
	if err != nil {
		panic(err)
	}
	return ls
}

// LaunchWide executes a barrier-free kernel a block at a time: one kernel
// call per block, metered through the block-wide primitives. Its metering
// is that of the per-lane kernel each primitive documents, run by Launch.
func (d *Device) LaunchWide(cfg LaunchConfig, kernel WideKernel) (LaunchStats, error) {
	return d.launch(&launchSpec{LaunchConfig: cfg, wide: kernel})
}

// MustLaunchWide is LaunchWide but panics on configuration errors.
func (d *Device) MustLaunchWide(cfg LaunchConfig, kernel WideKernel) LaunchStats {
	ls, err := d.LaunchWide(cfg, kernel)
	if err != nil {
		panic(err)
	}
	return ls
}

// launchSpec is one validated launch: its geometry and exactly one of the
// three kernel forms.
type launchSpec struct {
	LaunchConfig
	kernel Kernel
	phased BlockKernel
	phases int
	wide   WideKernel
}

// minFanoutLanes is the launch size, in lane invocations (grid x block x
// phases), from which a launch is spread over the host's cores; anything
// smaller runs inline on the launching goroutine. A phased launch counts
// every phase of its device program, so a fused bitonic network counts a
// phase per step though the kernel is called once for all of them.
// BenchmarkFanoutBreakEven on the 2-core bench host, inline against two
// goroutines, three runs each: a cheap compare-exchange kernel through the
// lane cursor (~15 ns a lane) 16 K lanes 253-280 against 169-243 us, 64 K
// 0.83-1.06 against 0.57-0.68 ms; the same kernel a block at a time (~11 ns
// a lane) 16 K 200-210 against 174-199 us, 64 K 0.72-0.78 against
// 0.46-0.54 ms; the fused bitonic network of batch_bitonic, which readies
// no lane's Thread (~2.3 ns a lane-phase), 19 K lane-phases 38-46 against
// 52-62 us, 76 K 184-188 against 135-182 us, 304 K 0.60-0.68 against
// 0.51 ms. Every form breaks even between 20 K and 80 K lane invocations,
// a launch of 100-200 us: waking a parked core and joining the helper
// costs tens of microseconds, and when the host has taken the second core
// away the helper waits a millisecond or more. One constant in lane
// invocations serves every form, at or above the break-even. At the
// bench's window size the output codec's launches over run values and run
// lengths (and every bitonic_global pass, when a column is sorted) fall
// below it; its launches over the window's sites and every kernel of the
// window pipeline are above it.
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

// launch is the common body of Launch, LaunchPhased and LaunchWide.
func (d *Device) launch(sp *launchSpec) (LaunchStats, error) {
	cfg := sp.LaunchConfig
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
	if cfg.LocalU32 < 0 || cfg.LocalU32 > 0 && (sp.kernel == nil || cfg.Sync) {
		return LaunchStats{}, fmt.Errorf("gpu: launch %q: %d words of local memory requested; only a barrier-free Launch has local memory", cfg.Name, cfg.LocalU32)
	}

	d.mu.Lock()
	gen := d.gen
	d.mu.Unlock()

	alone := d.inflight.Add(1) == 1
	defer d.inflight.Add(-1)

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
// the warp accounting) and, in block 0, the coalescing-sample stream the
// device lends (getSamples) are kept per lane, and one lane's local memory
// (rt.local) serves every lane in turn. A wide or phased kernel is handed the block, rt.blk: the block-wide
// primitives charge the same per-lane arrays, and the lanes a kernel asks
// for as Threads (Block.Lanes, Block.Lane) are readied in rt.lanes and
// summed back when the block ends. The Sync runner readies every lane and
// gives each its goroutine. One scratch serves one host goroutine at a time
// and returns to the device free-list after the launch, so steady-state
// launches allocate nothing. Everything a scratch owns — the Thread or
// Block a kernel is handed included — is valid only while its block runs;
// nothing may escape the launch.
type blockScratch struct {
	rt    blockRT
	cur   Thread
	instr []int64
	segs  []int64 // coalesce's distinct segments of one warp instruction
	bar   *barrier
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

// getSamples pops a recycled set of coalescing-sample streams, or makes an
// empty one, with n empty lane streams at its head.
func (d *Device) getSamples(n int) [][]int64 {
	d.mu.Lock()
	var set [][]int64
	if k := len(d.samples); k > 0 {
		set = d.samples[k-1]
		d.samples[k-1] = nil
		d.samples = d.samples[:k-1]
	}
	d.mu.Unlock()
	for len(set) < n {
		set = append(set, make([]int64, 0, 256))
	}
	for l := range set[:n] {
		set[l] = set[l][:0]
	}
	return set
}

// putSamples returns a set of sample streams for the next launch's block 0.
func (d *Device) putSamples(set [][]int64) {
	d.mu.Lock()
	d.samples = append(d.samples, set)
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
	sc.rt.phases = 0 // Retire panics unless the phased runner set it
	sc.rt.sizeLocal(sp.LocalU32)
	if sp.kernel == nil || sp.Sync {
		sc.rt.sizeLanes(sp.Block) // the cursor's blocks ready no lanes
	}
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
	clear(sc.instr)
	// Block 0 is the coalescing sample, as in a sampling profiler.
	var set [][]int64
	b := &rt.blk
	*b = Block{Dev: d, Index: bid, Dim: n, GridDim: sp.Grid, rt: rt, instr: sc.instr}
	if bid == 0 {
		set = d.getSamples(n)
		b.samples = set[:n]
	}

	switch {
	case sp.wide != nil:
		sp.wide(b)
		b.sumLanes()
	case sp.phased != nil:
		runBlockPhased(sp, b)
		b.sumLanes()
	case sp.Sync:
		runLanesSync(sp.kernel, b.Lanes(), sc)
		b.sumLanes()
	default:
		sc.cur = Thread{Dev: d, Block: bid, BlockDim: n, GridDim: sp.Grid, block: rt}
		runLanesAsync(sp.kernel, sc, n, b.samples)
		b.addCounters(&sc.cur)
	}
	s := Stats{
		GlobalLoads: b.gld, GlobalStores: b.gst,
		GlobalLoadBytes: b.gldB, GlobalStoreBytes: b.gstB,
		SharedLoads: b.sld, SharedStores: b.sst,
		ConstLoads: b.cld,
	}

	// SIMT issue accounting: a warp occupies its issue slots for as long
	// as its longest-running lane. Every lane issued b.every more than its
	// entry of sc.instr.
	ws := d.cfg.WarpSize
	instr, warpInstr := b.every*int64(n), int64(0)
	for w0 := 0; w0 < n; w0 += ws {
		var maxInstr int64
		for _, in := range sc.instr[w0:min(w0+ws, n)] {
			instr += in
			maxInstr = max(maxInstr, in)
		}
		warpInstr += maxInstr + b.every
	}
	s.Instructions, s.WarpInstructions = instr, warpInstr
	acc.stats.Add(s)
	if set != nil {
		sc.segs = grow(sc.segs, ws)
		trans, warpMI := d.coalesce(b.samples, sc.segs)
		acc.sampleTrans += trans
		acc.sampleWarpMI += warpMI
		d.putSamples(set)
	}
}

// runLanesAsync runs a barrier-free kernel over the lanes of one block, in
// lane order, through the cursor: the block-invariant fields were set by
// the caller, Lane is stepped here, and the sum-only counters simply keep
// counting across lanes. samples holds block 0's per-lane sample streams;
// it is nil in every other block.
func runLanesAsync(kernel Kernel, sc *blockScratch, n int, samples [][]int64) {
	t := &sc.cur
	for l := 0; l < n; l++ {
		t.Lane = l
		t.Reg = [2]uint64{}
		sc.rt.clearLocal()
		t.instr = 0
		if samples != nil {
			t.sample = &samples[l]
		}
		kernel(t)
		sc.instr[l] = t.instr
	}
}

// runBlockPhased runs a phased kernel over one block: one kernel call per
// phase, until the phases run out or every lane has retired — the barrier
// is the call boundary. A call that passes barriers itself
// (BitonicNetworkU32) advances rt.phase past them. The barrier charges are
// settled per lane rather than per phase: Retire charges a lane retiring in
// phase p for the p barriers it reached, and the lanes still live after the
// last phase retire here, at one barrier per phase.
func runBlockPhased(sp *launchSpec, b *Block) {
	rt := b.rt
	rt.phases, rt.live = sp.phases, b.Dim
	clear(rt.retired)
	for rt.phase = 0; rt.phase < sp.phases && rt.live > 0; rt.phase++ {
		sp.phased(b, rt.phase)
	}
	rt.phase = sp.phases
	b.Retire(0, b.Dim)
}

// runLanesSync runs a Thread.Sync kernel with one goroutine per lane (par.Do
// runs its shards concurrently), meeting at a cyclic barrier. No production
// kernel uses it; it stays as the accounting oracle the other two runners
// are tested against.
func runLanesSync(kernel Kernel, lanes []Thread, sc *blockScratch) {
	if sc.bar == nil {
		sc.bar = newBarrier(len(lanes))
	} else {
		sc.bar.reset(len(lanes))
	}
	sc.rt.bar = sc.bar
	defer func() { sc.rt.bar = nil }()
	par.Do(len(lanes), func(l int) {
		defer sc.bar.leave()
		kernel(&lanes[l])
	})
}

// coalesce analyses the sampled global-access address streams of one block,
// one stream per lane. The k-th access of each lane in a warp forms one SIMT memory instruction;
// its cost is the number of distinct SegmentBytes-sized segments touched.
// segs, of warp-size length, holds one instruction's distinct segments.
func (d *Device) coalesce(samples [][]int64, segs []int64) (transactions, warpMemInst int64) {
	ws := d.cfg.WarpSize
	seg := int64(d.cfg.SegmentBytes)
	for w0 := 0; w0 < len(samples); w0 += ws {
		warp := samples[w0:min(w0+ws, len(samples))]
		maxLen := 0
		for _, lane := range warp {
			maxLen = max(maxLen, len(lane))
		}
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

// blockRT is the per-block runtime state: shared memory, the barrier, the
// phased runner's position, the lanes readied as Threads, and the local
// memory of the lane the cursor is running.
type blockRT struct {
	dev       *Device
	sharedF64 []float64
	sharedU32 []uint32
	bar       *barrier

	// phases is a phased launch's phase count (zero outside the phased
	// runner), phase the phase its block is running and live the number of
	// the block's lanes not yet retired. retired marks the lanes that have
	// retired while others are still live: a block whose lanes all retire
	// at once marks none.
	phases, phase, live int
	retired             []bool

	// blk is the block-wide context of the block running, the argument of
	// a wide or phased kernel.
	blk Block

	// lanes holds the Thread of every lane the block running has readied
	// (Block.Lane), isReady marks them and ready lists them: sumLanes
	// visits only those.
	lanes   []Thread
	isReady []bool
	ready   []int32

	// local is LaunchConfig.LocalU32 words; localSet lists the words the
	// running lane has stored, so that the next lane finds them zero at the
	// cost of the stores made, not of the whole array.
	local    []uint32
	localSet []int32
}

// clearLocal zeroes the words the last lane stored. runLanesAsync calls it
// before each lane, so a lane that panicked leaves nothing for the next
// launch on this scratch either.
func (rt *blockRT) clearLocal() {
	for _, i := range rt.localSet {
		rt.local[i] = 0
	}
	rt.localSet = rt.localSet[:0]
}

// sizeLanes readies the lane arrays for blocks of n lanes, none of them
// readied: a block that panicked may have left marks behind.
func (rt *blockRT) sizeLanes(n int) {
	rt.lanes = grow(rt.lanes, n)
	rt.retired = grow(rt.retired, n)
	rt.isReady = grow(rt.isReady, n)
	clear(rt.isReady)
	rt.ready = rt.ready[:0]
}

// sizeLocal readies n zero words of local memory for a launch. Every word
// outside localSet is already zero, so after clearLocal the array only
// needs its length set.
func (rt *blockRT) sizeLocal(n int) {
	rt.clearLocal()
	rt.local = grow(rt.local, n)
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
