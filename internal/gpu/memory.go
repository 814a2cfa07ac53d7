package gpu

import (
	"fmt"
	"unsafe"
)

// Buffer is a device-resident typed array in simulated global memory.
// Host code accesses the backing storage directly via Host (unmetered, like
// reading memory you just copied back); kernels must go through Ld/St so the
// access is metered and enters the coalescing sample.
type Buffer[T any] struct {
	dev      *Device
	data     []T
	id       int64
	elemSize int64
	freed    bool
}

// maxFreeListEntries bounds each element-size class of the storage
// free-list. The window pipeline keeps well under this many buffers live
// per size class; anything beyond it is dropped for the garbage collector
// so a pathological allocation pattern cannot pin unbounded host memory.
const maxFreeListEntries = 64

// takeStorage pops a recycled backing array with capacity for n elements
// from the device free-list. The caller must hold d.mu. Entries of the
// right byte size but a different element type are left in place for their
// own type's allocations.
func takeStorage[T any](d *Device, es int64, n int) []T {
	if n == 0 {
		return nil
	}
	list := d.bufFree[es]
	for i := len(list) - 1; i >= 0; i-- {
		s, ok := list[i].([]T)
		if !ok || cap(s) < n {
			continue
		}
		last := len(list) - 1
		list[i] = list[last]
		list[last] = nil
		d.bufFree[es] = list[:last]
		return s[:n]
	}
	return nil
}

// putStorage returns a backing array to the free-list for the next Alloc
// of the same element size. The caller must hold d.mu.
func (d *Device) putStorage(es int64, data any) {
	if d.bufFree == nil {
		d.bufFree = make(map[int64][]any)
	}
	list := d.bufFree[es]
	if len(list) >= maxFreeListEntries {
		return
	}
	d.bufFree[es] = append(list, data)
}

// noteDoubleFree counts a redundant Free absorbed by the guard.
func (d *Device) noteDoubleFree() {
	d.mu.Lock()
	d.totals.DoubleFrees++
	d.mu.Unlock()
}

// Alloc reserves an n-element device buffer. It panics if the device memory
// capacity would be exceeded — the simulated analogue of cudaMalloc failing,
// kept as a panic because allocations in this codebase are sized from
// window configuration and exceeding 3 GB indicates a programming error.
//
// Backing storage is recycled from the device free-list when a previously
// freed buffer of the same element type has enough capacity, so the
// steady-state window loop allocates nothing; recycled storage is zeroed
// first, preserving the fresh-allocation semantics kernels rely on.
func Alloc[T any](dev *Device, n int) *Buffer[T] {
	var zero T
	es := int64(unsafe.Sizeof(zero))
	bytes := es * int64(n)
	dev.mu.Lock()
	if dev.allocated+bytes > dev.cfg.GlobalMemBytes {
		used := dev.allocated
		dev.mu.Unlock()
		panic(fmt.Sprintf("gpu: out of device memory: %d B requested, %d/%d B in use", bytes, used, dev.cfg.GlobalMemBytes))
	}
	dev.allocated += bytes
	dev.nextBufID++
	id := dev.nextBufID
	data := takeStorage[T](dev, es, n)
	dev.mu.Unlock()
	if data == nil {
		data = make([]T, n)
	} else {
		clear(data)
	}
	return &Buffer[T]{dev: dev, data: data, id: id, elemSize: es}
}

// Free releases the buffer's device-memory accounting exactly once and
// returns the backing storage to the device free-list. Using the buffer
// after Free is a programming error (the storage is cleared to surface it).
// A second Free on the same buffer is a guarded no-op counted in
// Stats.DoubleFrees: without the guard it would corrupt the accounting and
// push the storage onto the free-list twice, aliasing two live buffers.
func (b *Buffer[T]) Free() {
	if b.freed {
		b.dev.noteDoubleFree()
		return
	}
	b.freed = true
	bytes := b.elemSize * int64(len(b.data))
	b.dev.mu.Lock()
	b.dev.allocated -= bytes
	if cap(b.data) > 0 {
		b.dev.putStorage(b.elemSize, b.data)
	}
	b.dev.mu.Unlock()
	b.data = nil
}

// Len returns the element count.
func (b *Buffer[T]) Len() int { return len(b.data) }

// Host returns the backing storage for host-side access. Mutating it from
// the host while a kernel runs is a race, as on real hardware.
func (b *Buffer[T]) Host() []T { return b.data }

// CopyIn copies src into the buffer (host-to-device), advancing the
// simulated clock at PCIe bandwidth. Passing the buffer's own Host slice
// is allowed: it meters the transfer a real upload of staged data would
// cost without needing a second host array.
func (b *Buffer[T]) CopyIn(src []T) {
	n := copy(b.data, src)
	b.dev.advanceCopy(int64(n)*b.elemSize, true)
}

// CopyOut copies the buffer into dst (device-to-host), advancing the
// simulated clock at PCIe bandwidth.
func (b *Buffer[T]) CopyOut(dst []T) {
	n := copy(dst, b.data)
	b.dev.advanceCopy(int64(n)*b.elemSize, false)
}

// addr returns the logical global-memory address of element i, unique
// across buffers so the coalescing sampler can distinguish streams.
func (b *Buffer[T]) addr(i int) int64 { return b.id<<40 + int64(i)*b.elemSize }

// Ld performs a metered global-memory load of element i from within a
// kernel.
func Ld[T any](t *Thread, b *Buffer[T], i int) T {
	t.recordGlobal(b.addr(i), b.elemSize, false)
	return b.data[i]
}

// St performs a metered global-memory store of element i from within a
// kernel.
func St[T any](t *Thread, b *Buffer[T], i int, v T) {
	t.recordGlobal(b.addr(i), b.elemSize, true)
	b.data[i] = v
}

// AtomicAddU32 performs a metered atomic add on element i, returning the
// old value. The simulator runs blocks concurrently on the host, so the
// update itself must be host-atomic; the accounting charges one load and
// one store, like the profiler's gld/gst counters do for atomics on Fermi.
func AtomicAddU32(t *Thread, b *Buffer[uint32], i int, delta uint32) uint32 {
	t.recordGlobal(b.addr(i), b.elemSize, false)
	t.recordGlobal(b.addr(i), b.elemSize, true)
	return atomicAddU32(&b.data[i], delta)
}

// AtomicExchU32 performs a metered atomic exchange on element i, returning
// the old value; host-atomic and charged like AtomicAddU32.
func AtomicExchU32(t *Thread, b *Buffer[uint32], i int, v uint32) uint32 {
	t.recordGlobal(b.addr(i), b.elemSize, false)
	t.recordGlobal(b.addr(i), b.elemSize, true)
	return atomicExchU32(&b.data[i], v)
}

// ConstBuffer is a read-only array in simulated constant memory. Constant
// memory is cached on-chip; loads are metered as instructions and constant
// loads but never contribute global-memory transactions.
type ConstBuffer[T any] struct {
	dev       *Device
	data      []T
	freed     bool
	transient bool
}

// NewConst uploads data to constant memory. It returns an error when the
// device's constant-memory capacity would be exceeded — callers decide
// whether to fall back to global memory, as GSNP's DICT dictionaries do.
// Like Alloc, it recycles freed backing storage from the device free-list.
func NewConst[T any](dev *Device, data []T) (*ConstBuffer[T], error) {
	return newConst(dev, data, false)
}

// newConst uploads data to constant memory. A transient buffer is resident
// only for the launch it is uploaded for (the DICT search dictionary): it
// must fit beside the persistent allocations, but it is not charged against
// other uploads. Launches execute one after another on the simulated
// device, so two host goroutines searching at once are not two dictionaries
// resident at once, and whether a search gets constant memory must not
// depend on how the host scheduled them.
func newConst[T any](dev *Device, data []T, transient bool) (*ConstBuffer[T], error) {
	var zero T
	es := int64(unsafe.Sizeof(zero))
	bytes := int(es) * len(data)
	dev.mu.Lock()
	if dev.constUsed+bytes > dev.cfg.ConstMemBytes {
		used := dev.constUsed
		dev.mu.Unlock()
		return nil, fmt.Errorf("gpu: constant memory exhausted: %d B requested, %d/%d B in use", bytes, used, dev.cfg.ConstMemBytes)
	}
	if !transient {
		dev.constUsed += bytes
	}
	cp := takeStorage[T](dev, es, len(data))
	dev.mu.Unlock()
	if cp == nil {
		cp = make([]T, len(data))
	}
	copy(cp, data)
	dev.advanceCopy(int64(bytes), true)
	return &ConstBuffer[T]{dev: dev, data: cp, transient: transient}, nil
}

// Free releases the constant-memory accounting of cb exactly once and
// recycles the backing storage. A second Free is a guarded no-op counted
// in Stats.DoubleFrees, as for Buffer.Free.
func (cb *ConstBuffer[T]) Free() {
	if cb.freed {
		cb.dev.noteDoubleFree()
		return
	}
	cb.freed = true
	var zero T
	es := int64(unsafe.Sizeof(zero))
	bytes := int(es) * len(cb.data)
	cb.dev.mu.Lock()
	if !cb.transient {
		cb.dev.constUsed -= bytes
	}
	if cap(cb.data) > 0 {
		cb.dev.putStorage(es, cb.data)
	}
	cb.dev.mu.Unlock()
	cb.data = nil
}

// Len returns the element count.
func (cb *ConstBuffer[T]) Len() int { return len(cb.data) }

// CLd performs a metered constant-memory load of element i from within a
// kernel.
func CLd[T any](t *Thread, cb *ConstBuffer[T], i int) T {
	t.recordConst()
	return cb.data[i]
}
