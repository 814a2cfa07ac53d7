package gpu

import "math"

// Thread is the execution context passed to a kernel, one per simulated
// thread. Its exported fields mirror the CUDA built-ins: Block is
// blockIdx.x, Lane is threadIdx.x, BlockDim/GridDim the launch geometry.
type Thread struct {
	// Dev is the device running the kernel.
	Dev *Device
	// Block is the block index within the grid.
	Block int
	// Lane is the thread index within the block.
	Lane int
	// BlockDim is the number of threads per block.
	BlockDim int
	// GridDim is the number of blocks.
	GridDim int

	// Reg models two per-lane registers for BlockKernel bodies: register
	// state survives barriers on real hardware, and phased kernels need a
	// place to carry values across phase boundaries without re-reading
	// memory (which would change the metered counts). Reads and writes
	// are free, like register traffic.
	Reg [2]uint64

	block   *blockRT
	sample  *[]int64 // the lane's coalescing sample (block 0 only, else nil)
	retired bool     // the lane has left a phased kernel (Retire)

	instr, gld, gst, gldB, gstB, sld, sst, cld int64
}

// GlobalID returns the flat thread id Block*BlockDim + Lane.
func (t *Thread) GlobalID() int { return t.Block*t.BlockDim + t.Lane }

// Exec declares n arithmetic instructions. Kernels call it to account for
// the compute work between memory operations, mirroring what a hardware
// profiler's issued-instruction counter would observe.
func (t *Thread) Exec(n int) { t.instr += int64(n) }

// syncCost is the issue-slot cost charged per thread per barrier,
// modelling the pipeline drain and re-convergence latency of
// __syncthreads (roughly 16 cycles of lost issue on Fermi-class parts).
const syncCost = 16

// Sync is the block-wide barrier (__syncthreads). The launch must have been
// configured with LaunchConfig.Sync; calling Sync in an asynchronous launch
// panics, because sequential thread execution cannot honour a barrier.
func (t *Thread) Sync() {
	if t.block.bar == nil {
		panic("gpu: Thread.Sync called in a launch without LaunchConfig.Sync")
	}
	t.instr += syncCost
	t.block.bar.await()
}

// Retire ends the lane in a phased launch after its work of the current
// phase: it reaches none of the remaining barriers and pays for none, as
// if its Kernel body had returned before the next __syncthreads. The lane
// is charged here for the barriers it did reach, one per earlier phase.
// The BlockKernel must not run a retired lane again (Retired). Retiring a
// lane twice is a no-op; Retire outside a phased launch panics.
func (t *Thread) Retire() {
	if t.retired {
		return
	}
	rt := t.block
	if rt.live == 0 {
		panic("gpu: Thread.Retire called outside a phased launch")
	}
	t.retired = true
	t.instr += syncCost * int64(rt.phase)
	rt.live--
}

// Retired reports whether the lane has retired from its phased launch.
func (t *Thread) Retired() bool { return t.retired }

// SharedF64 reads element i of the block's shared float64 array.
func (t *Thread) SharedF64(i int) float64 {
	t.instr++
	t.sld++
	return t.block.sharedF64[i]
}

// SetSharedF64 writes element i of the block's shared float64 array.
func (t *Thread) SetSharedF64(i int, v float64) {
	t.instr++
	t.sst++
	t.block.sharedF64[i] = v
}

// AddSharedF64 accumulates v into element i (one load + one store, as the
// paper counts the ten read-modify-write updates of type_likely).
func (t *Thread) AddSharedF64(i int, v float64) {
	t.instr++
	t.sld++
	t.sst++
	t.block.sharedF64[i] += v
}

// SharedF64Run is a metered run, n accesses in one update per counter:
// for k := range n { t.SharedF64(i+k) }, returning elements [i, i+n) as a
// view valid only within the kernel invocation.
func (t *Thread) SharedF64Run(i, n int) []float64 {
	t.instr += int64(n)
	t.sld += int64(n)
	return t.block.sharedF64[i : i+n : i+n]
}

// SetSharedF64Run is for k, x := range v { t.SetSharedF64(i+k, x) }.
func (t *Thread) SetSharedF64Run(i int, v []float64) {
	t.instr += int64(len(v))
	t.sst += int64(len(v))
	copy(t.block.sharedF64[i:i+len(v)], v)
}

// AddSharedF64Run is for k, x := range v { t.AddSharedF64(i+k, x) }.
func (t *Thread) AddSharedF64Run(i int, v []float64) {
	t.instr += int64(len(v))
	t.sld += int64(len(v))
	t.sst += int64(len(v))
	sh := t.block.sharedF64[i : i+len(v)]
	for k, x := range v {
		sh[k] += x
	}
}

// SharedU32 reads element i of the block's shared uint32 array.
func (t *Thread) SharedU32(i int) uint32 {
	t.instr++
	t.sld++
	return t.block.sharedU32[i]
}

// SetSharedU32 writes element i of the block's shared uint32 array.
func (t *Thread) SetSharedU32(i int, v uint32) {
	t.instr++
	t.sst++
	t.block.sharedU32[i] = v
}

// LocalU32 reads word i of the thread's local memory (LaunchConfig.LocalU32
// words, zero when the thread starts). Local memory is per-thread storage in
// device DRAM, so the read is metered as a 4-byte global load at the address
// word i of the thread's slice of a Grid·Block·LocalU32 global buffer would
// have: every counter and the coalescing sample come out as they would for
// that buffer.
func (t *Thread) LocalU32(i int) uint32 {
	t.recordGlobal(t.localAddr(i), 4, false)
	return t.block.local[i]
}

// SetLocalU32 writes word i of the thread's local memory, metered as a
// 4-byte global store.
func (t *Thread) SetLocalU32(i int, v uint32) {
	t.recordGlobal(t.localAddr(i), 4, true)
	rt := t.block
	if rt.local[i] == 0 {
		rt.localSet = append(rt.localSet, int32(i))
	}
	rt.local[i] = v
}

// localAddr is the logical address of local word i. Buffer ids start at 1
// (Buffer.addr), so the address range of id 0 is local memory's alone.
func (t *Thread) localAddr(i int) int64 {
	return int64(t.GlobalID()*len(t.block.local)+i) * 4
}

// Log10 is the device base-10 logarithm. With Config.FastMath it emulates
// the GPU's native implementation, which differs from the host libm in the
// trailing bits — the source of the ~0.1% result mismatches Section IV-G
// describes; otherwise it is bit-identical to math.Log10. Either way it
// costs the equivalent of 8 arithmetic instructions.
func (t *Thread) Log10(x float64) float64 {
	t.instr += 8
	if t.Dev.cfg.FastMath {
		return fastLog10(x)
	}
	return math.Log10(x)
}

// fastLog10 emulates a less accurate device intrinsic: log2(x)/log2(10)
// computed in a different association order than libm, producing last-ULP
// differences for many inputs.
func fastLog10(x float64) float64 {
	return math.Log2(x) * (1 / math.Log2(10))
}

// sampleCap bounds the coalescing sample of one lane, in accesses.
const sampleCap = 1 << 16

// recordGlobal meters one global access of size bytes at logical address
// addr.
func (t *Thread) recordGlobal(addr int64, size int64, store bool) {
	t.instr++
	if store {
		t.gst++
		t.gstB += size
	} else {
		t.gld++
		t.gldB += size
	}
	if s := t.sample; s != nil && len(*s) < sampleCap {
		*s = append(*s, addr)
	}
}

// recordRun meters n global accesses of size bytes at addr, addr+size, ...:
// n recordGlobal calls, with one update per counter and, in the sampled
// block, the n addresses in order up to the sample cap.
func (t *Thread) recordRun(addr, size int64, n int, store bool) {
	t.instr += int64(n)
	if store {
		t.gst += int64(n)
		t.gstB += int64(n) * size
	} else {
		t.gld += int64(n)
		t.gldB += int64(n) * size
	}
	if s := t.sample; s != nil {
		appendRun(s, addr, size, n)
	}
}

// appendRun appends the n addresses addr, addr+size, ... to a lane's
// coalescing sample, up to the sample cap.
func appendRun(s *[]int64, addr, size int64, n int) {
	for k := 0; k < n && len(*s) < sampleCap; k++ {
		*s = append(*s, addr+int64(k)*size)
	}
}

// recordConst meters one constant-memory load.
func (t *Thread) recordConst() {
	t.instr++
	t.cld++
}
