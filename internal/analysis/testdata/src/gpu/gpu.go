// Package gpu is an arenalifetime fixture: it mirrors the shape of the
// real internal/gpu launch scratch (a device free-list of blockScratch
// values owning the lane cursor and its per-lane side arrays, the per-lane
// contexts of kernels with barriers, shared-memory arrays and coalescing
// samples) so the analyzer's type matching works unchanged. Scratch memory is recycled launch-to-launch; a reference
// that outlives the block would be overwritten by the next launch.
package gpu

import "sync"

// Thread is the kernel's lane context. The async runner steps one of them,
// the scratch's cursor, through all lanes of a block; kernels with barriers
// get one per lane.
type Thread struct {
	Lane   int
	Reg    [2]uint64
	block  *blockRT
	sample []int64
	instr  int64
}

// blockRT is the per-block runtime state.
type blockRT struct {
	sharedU32 []uint32
	sharedF64 []float64
}

// Buffer is an array in device memory.
type Buffer[T any] struct{ data []T }

// LdRun is a metered-run primitive: it charges n loads to the lane and
// hands out a view of device storage.
func LdRun[T any](t *Thread, b *Buffer[T], i, n int) []T {
	t.instr += int64(n)
	return b.data[i : i+n]
}

// SharedF64Run is a metered-run primitive on the block's shared memory.
func (t *Thread) SharedF64Run(i, n int) []float64 {
	t.instr += int64(n)
	return t.block.sharedF64[i : i+n]
}

// Block is the block-wide context of a kernel charged a block at a time.
type Block struct {
	rt    *blockRT
	instr []int64
}

// LdWide is a block-wide primitive: it charges one load to each of n
// lanes and hands out a view of device storage.
func LdWide[T any](b *Block, buf *Buffer[T], l0, i, n int) []T {
	b.instr[l0] += int64(n)
	return buf.data[i : i+n]
}

// blockScratch is the recycled per-block execution state.
type blockScratch struct {
	rt      blockRT
	blk     Block
	cur     Thread
	instr   []int64
	samples [][]int64
	lanes   []Thread
}

// device owns the scratch free-list; it is long-lived but not itself an
// arena type, so pushing scratch back onto it is the recycle idiom, not
// an escape.
type device struct {
	scratch []*blockScratch
}

// putScratch returns a scratch to the free-list: the recycle push.
func (d *device) putScratch(sc *blockScratch) {
	d.scratch = append(d.scratch, sc)
}

// runBlock shows the production idioms that must stay silent: borrowing
// thread contexts through a derived variable, wiring the sample stream
// into a thread context (both roots are scratch), storing it back after
// the block, and joined goroutine fan-out over the contexts.
func (d *device) runBlock(sc *blockScratch, wg *sync.WaitGroup) {
	threads := sc.lanes
	for l := range threads {
		threads[l].sample = sc.samples[l][:0]
	}
	for l := range threads {
		wg.Add(1)
		go func(t *Thread) {
			defer wg.Done()
			t.sample = append(t.sample, 1)
		}(&threads[l])
	}
	wg.Wait()
	for l := range threads {
		sc.samples[l] = threads[l].sample
	}
}

// runLanes is the cursor idiom that must stay silent: one Thread borrowed
// from the scratch through a local, the lane's sample stream swapped in,
// its results written back into the side arrays, and the cursor handed
// down to the kernel as an argument.
func runLanes(sc *blockScratch, kernel func(*Thread)) {
	t := &sc.cur
	instr := sc.instr
	for l := range instr {
		t.Lane = l
		t.Reg = [2]uint64{}
		t.instr = 0
		t.sample = sc.samples[l]
		kernel(t)
		instr[l] = t.instr
		sc.samples[l] = t.sample
	}
}

// runPhased is the phased idiom that must stay silent: the block's lane
// contexts handed to the kernel once per phase.
func runPhased(sc *blockScratch, phases int, kernel func([]Thread, int)) {
	for p := 0; p < phases; p++ {
		kernel(sc.lanes, p)
	}
}

// LeakShared returns scratch-owned shared memory across the package API.
func LeakShared(sc *blockScratch) []uint32 {
	return sc.rt.sharedU32 // want "arena-owned slice returned from exported LeakShared"
}

// LeakSample leaks a thread's sample stream.
func LeakSample(t *Thread) []int64 {
	return t.sample // want "arena-owned slice returned from exported LeakSample"
}

type profile struct{ addrs []int64 }

// Record parks a sample stream in a struct that outlives the launch.
func Record(sc *blockScratch, p *profile) {
	p.addrs = sc.samples[0] // want "arena-owned slice stored in field addrs"
}

// RecordDerived tracks the escape through the thread-context variable.
func RecordDerived(sc *blockScratch, p *profile) {
	threads := sc.lanes
	p.addrs = threads[0].sample // want "arena-owned slice stored in field addrs"
}

// Publish leaks shared memory to whoever drains the channel.
func Publish(sc *blockScratch, ch chan []uint32) {
	ch <- sc.rt.sharedU32 // want "arena-owned slice sent on a channel"
}

// RecordInstr parks the per-lane instruction counts, one of the cursor's
// side arrays, in a struct that outlives the launch.
func RecordInstr(sc *blockScratch, p *profile) {
	p.addrs = sc.instr // want "arena-owned slice stored in field addrs"
}

// LeakLanes returns the per-lane contexts of a kernel with barriers.
func LeakLanes(sc *blockScratch) []Thread {
	return sc.lanes // want "arena-owned slice returned from exported LeakLanes"
}

// Cursor hands the lane cursor itself across the package API.
func Cursor(sc *blockScratch) *Thread {
	return &sc.cur // want "lane cursor returned from exported Cursor"
}

type tracer struct {
	last  *Thread
	block []Thread
}

var lastLane *Thread

// Kernels shows what a kernel may not do with the Thread it is handed:
// every one of these keeps the cursor past its own invocation, where it
// is some other lane's state by the time anyone looks.
func Kernels(sc *blockScratch, tr *tracer, ch chan *Thread) {
	var first *Thread
	runLanes(sc, func(t *Thread) {
		tr.last = t // want "lane cursor stored in field last"
	})
	runLanes(sc, func(t *Thread) {
		if t.Lane == 0 {
			first = t // want "lane cursor stored in first, which outlives the kernel invocation"
		}
	})
	runLanes(sc, func(t *Thread) {
		lastLane = t // want "lane cursor stored in lastLane, which outlives the kernel invocation"
	})
	runLanes(sc, func(t *Thread) {
		ch <- t // want "lane cursor sent on a channel"
	})
	runLanes(sc, func(t *Thread) {
		self := t // a local alias dies with the invocation
		self.instr++
	})
	_ = first
}

var lastBlock []Thread

// PhasedKernels is the same for the lanes a phased kernel is handed: they
// are the next block's by the time anyone looks.
func PhasedKernels(sc *blockScratch, tr *tracer) {
	var saved []Thread
	runPhased(sc, 2, func(lanes []Thread, p int) {
		saved = lanes[1:] // want "lane contexts stored in saved, which outlives the kernel invocation"
	})
	runPhased(sc, 2, func(lanes []Thread, p int) {
		tr.block = lanes // want "lane contexts stored in field block"
	})
	runPhased(sc, 2, func(lanes []Thread, p int) {
		lastBlock = lanes // want "lane contexts stored in lastBlock, which outlives the kernel invocation"
	})
	runPhased(sc, 2, func(lanes []Thread, p int) {
		live := lanes[:2] // a local view dies with the invocation
		t := &live[p]
		t.instr++
	})
	_ = saved
}

// SpawnUnjoined lets a goroutine outlive the block it borrows from.
func SpawnUnjoined(sc *blockScratch) {
	go use(sc.rt.sharedU32) // want "goroutine borrows arena memory with no .Wait"
}

func use([]uint32) {}

// MeteredRuns keeps one run's view past the kernel invocation that loaded
// it, where the next lane's run overwrites or re-aims it, and uses the
// views of another within the invocation.
func MeteredRuns(sc *blockScratch, b *Buffer[float64]) {
	var last []float64
	runLanes(sc, func(t *Thread) {
		last = LdRun(t, b, t.Lane, 10) // want "metered-run view stored in last, which outlives the kernel invocation"
	})
	runLanes(sc, func(t *Thread) {
		v := LdRun(t, b, t.Lane, 10) // local views die with the invocation
		sh := t.SharedF64Run(0, 10)
		sh[0] += v[0]
	})
	_ = last
}

// runWide hands the block-wide context to a kernel, once per block.
func runWide(sc *blockScratch, kernel func(*Block)) {
	kernel(&sc.blk)
}

type wideTracer struct{ last *Block }

// WideKernels keeps the block-wide context and a block-wide view past the
// kernel invocation, where they are the next block's.
func WideKernels(sc *blockScratch, tr *wideTracer, b *Buffer[uint32]) {
	var last []uint32
	runWide(sc, func(blk *Block) {
		tr.last = blk // want "block context stored in field last"
	})
	runWide(sc, func(blk *Block) {
		last = LdWide(blk, b, 0, 0, 4) // want "metered-run view stored in last, which outlives the kernel invocation"
	})
	runWide(sc, func(blk *Block) {
		v := LdWide(blk, b, 0, 0, 4) // a local view dies with the invocation
		v[0]++
	})
	_ = last
}
