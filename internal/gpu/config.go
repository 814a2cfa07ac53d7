// Package gpu implements a software SIMT GPU simulator.
//
// The simulator stands in for the NVIDIA Tesla M2050 used by GSNP (Lu et
// al., ICPP 2011): Go has no practical CUDA binding, so kernels are executed
// on the host — for real, producing real results — while the simulator
// meters every memory access and arithmetic step the kernel declares, models
// memory coalescing per warp, and advances a simulated device clock using an
// analytic timing model calibrated to the bandwidth and core counts the
// paper reports for the M2050 (Section VI-A).
//
// # Execution model
//
// A kernel is a Go function that runs every simulated thread: a barrier-free
// or Sync kernel is invoked once per thread, a phased one once per block and
// phase for all the block's threads. Threads are grouped into blocks (CUDA
// thread blocks) and warps of 32. A large launch spreads contiguous ranges
// of its blocks over the host's cores; a small one runs inline on the
// launching goroutine. Within a block one of three runners steps the
// threads:
//
//   - Launch: the lane cursor, one Thread stepped through the lanes in order,
//     each lane running to completion — barrier-free kernels whose lanes
//     gather a varying number of elements, such as counting, likelihood_comp
//     and posterior;
//   - LaunchWide: one kernel call per block and no Thread at all, the kernel
//     (a WideKernel) charging ranges of lanes through the block-wide
//     primitives of Block — barrier-free kernels whose lanes make one access
//     or a few each, such as the RLE and DICT codec kernels;
//   - LaunchPhased: one kernel call per block and phase, in which the kernel
//     (a BlockKernel) does every live lane's work of the phase, charging
//     ranges of lanes through the block-wide primitives and, where a lane
//     needs its own context, the Thread the block readies for it on demand
//     (Block.Lane, Block.Lanes); the barrier is the call boundary, and lanes
//     leave early through Block.Retire — kernels whose barriers are static,
//     such as every bitonic sort, scan and reduce here, a whole sorting
//     network in one call (BitonicNetworkU32);
//   - Launch with LaunchConfig.Sync: a goroutine per lane meeting at a cyclic
//     barrier on Thread.Sync — the accounting oracle the other two are
//     tested against, with no production kernel.
//
// # Accounting model
//
// Kernels access device-resident data through typed Buffer values using
// Ld/St, shared memory through the Thread shared-array accessors, per-thread
// local memory (LaunchConfig.LocalU32, barrier-free launches only) through
// Thread.LocalU32/SetLocalU32, and constant memory through ConstBuffer. Each
// access increments per-thread counters that are merged into per-launch and
// per-device statistics — instructions, global loads/stores (and bytes),
// shared loads/stores, constant loads. Local memory lives in device DRAM on
// real hardware, so its accesses count as 4-byte global loads and stores at
// the addresses a Grid·Block·LocalU32 global buffer would give them. These
// are the quantities CUDA Visual Profiler reports and the paper lists in
// Table III. Arithmetic work is declared with Thread.Exec(n), mirroring how
// a profiler counts issued instructions.
//
// Coalescing is estimated by sampling: in the first block of every launch
// each thread records the addresses of its global accesses; the k-th access
// of the 32 lanes of a warp is treated as one SIMT memory instruction, and
// the number of distinct 128-byte segments it touches is the number of
// memory transactions it costs. The sampled transactions-per-access ratio
// extrapolates to the whole launch, exactly as a sampling profiler would.
//
// # Timing model
//
// A launch's simulated time is max(compute, memory) + launch overhead,
// where compute = thread-instructions / (cores x clock) and memory =
// transactions x 128B / peak bandwidth. The published M2050 figures fall
// out of this model: a fully coalesced 4-byte access per lane moves one
// 128-byte transaction per warp (82 GB/s effective), while a fully
// scattered one moves 32 transactions for the same 128 useful bytes
// (82/32 = 2.6 GB/s, matching the 3.2 GB/s random-access measurement of
// the paper within model accuracy). Host/device copies advance the clock
// at PCIe bandwidth.
package gpu

// Config describes the simulated device.
type Config struct {
	// Name identifies the device in reports.
	Name string
	// SMs is the number of streaming multiprocessors.
	SMs int
	// CoresPerSM is the number of scalar cores per SM.
	CoresPerSM int
	// ClockHz is the core clock rate.
	ClockHz float64
	// WarpSize is the SIMT width. All presets use 32.
	WarpSize int
	// SharedMemPerBlock is the shared-memory capacity available to one
	// block, in bytes.
	SharedMemPerBlock int
	// ConstMemBytes is the total constant-memory capacity.
	ConstMemBytes int
	// GlobalMemBytes is the device memory capacity.
	GlobalMemBytes int64
	// PeakBandwidth is the global-memory bandwidth for fully coalesced
	// access, in bytes/second.
	PeakBandwidth float64
	// SegmentBytes is the memory transaction size (128 B on Fermi).
	SegmentBytes int
	// PCIeBandwidth is the host<->device copy bandwidth in bytes/second.
	PCIeBandwidth float64
	// LaunchOverhead is the fixed simulated cost of one kernel launch, in
	// seconds.
	LaunchOverhead float64
	// FastMath selects the device's native math functions for
	// Thread.Log10, which differ from the host libm in the last bits —
	// the CPU/GPU inconsistency discussed in Section IV-G of the paper.
	// When false, Log10 is bit-identical to math.Log10.
	FastMath bool
}

// M2050 returns the configuration of the NVIDIA Tesla M2050 used in the
// paper's evaluation: 448 cores (14 SMs x 32), 1.15 GHz, 3 GB memory,
// 48 KB shared memory per block, 64 KB constant memory, measured 82 GB/s
// coalesced bandwidth.
func M2050() Config {
	return Config{
		Name:              "Tesla M2050 (simulated)",
		SMs:               14,
		CoresPerSM:        32,
		ClockHz:           1.15e9,
		WarpSize:          32,
		SharedMemPerBlock: 48 << 10,
		ConstMemBytes:     64 << 10,
		GlobalMemBytes:    3 << 30,
		PeakBandwidth:     82e9,
		SegmentBytes:      128,
		PCIeBandwidth:     5e9,
		LaunchOverhead:    5e-6,
	}
}

// C2050 returns the Tesla C2050 configuration — the M2050's workstation
// sibling with ECC overhead lowering effective bandwidth.
func C2050() Config {
	c := M2050()
	c.Name = "Tesla C2050 (simulated)"
	c.PeakBandwidth = 72e9
	return c
}

// GTX280 returns a previous-generation (GT200) configuration: fewer cores,
// no L1/L2 for global memory, smaller shared memory per block. Useful for
// sensitivity studies of the timing model.
func GTX280() Config {
	return Config{
		Name:              "GeForce GTX 280 (simulated)",
		SMs:               30,
		CoresPerSM:        8,
		ClockHz:           1.30e9,
		WarpSize:          32,
		SharedMemPerBlock: 16 << 10,
		ConstMemBytes:     64 << 10,
		GlobalMemBytes:    1 << 30,
		PeakBandwidth:     142e9, // wide GDDR3 bus, but no cache hierarchy
		SegmentBytes:      128,
		PCIeBandwidth:     3e9,
		LaunchOverhead:    8e-6,
	}
}

// TotalCores returns the number of scalar cores on the device.
func (c Config) TotalCores() int { return c.SMs * c.CoresPerSM }

// validate fills defaults for zero fields so a partially specified Config
// (common in tests) behaves sensibly.
func (c Config) withDefaults() Config {
	d := M2050()
	if c.Name == "" {
		c.Name = "generic (simulated)"
	}
	if c.SMs == 0 {
		c.SMs = d.SMs
	}
	if c.CoresPerSM == 0 {
		c.CoresPerSM = d.CoresPerSM
	}
	if c.ClockHz == 0 {
		c.ClockHz = d.ClockHz
	}
	if c.WarpSize == 0 {
		c.WarpSize = d.WarpSize
	}
	if c.SharedMemPerBlock == 0 {
		c.SharedMemPerBlock = d.SharedMemPerBlock
	}
	if c.ConstMemBytes == 0 {
		c.ConstMemBytes = d.ConstMemBytes
	}
	if c.GlobalMemBytes == 0 {
		c.GlobalMemBytes = d.GlobalMemBytes
	}
	if c.PeakBandwidth == 0 {
		c.PeakBandwidth = d.PeakBandwidth
	}
	if c.SegmentBytes == 0 {
		c.SegmentBytes = d.SegmentBytes
	}
	if c.PCIeBandwidth == 0 {
		c.PCIeBandwidth = d.PCIeBandwidth
	}
	if c.LaunchOverhead == 0 {
		c.LaunchOverhead = d.LaunchOverhead
	}
	return c
}
