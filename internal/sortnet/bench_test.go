package sortnet

import (
	"testing"

	"gsnp/internal/gpu"
)

func benchBatches(numArrays, meanSize int) *Batches {
	return randomBatches(numArrays, meanSize, 99)
}

func BenchmarkMultipassBitonic(b *testing.B) {
	d := gpu.NewDevice(gpu.M2050())
	orig := benchBatches(5000, 12)
	b.SetBytes(int64(len(orig.Data) * 4))
	for i := 0; i < b.N; i++ {
		MultipassBitonic(d, clone(orig))
	}
}

func BenchmarkSinglePassBitonic(b *testing.B) {
	d := gpu.NewDevice(gpu.M2050())
	orig := benchBatches(5000, 12)
	b.SetBytes(int64(len(orig.Data) * 4))
	for i := 0; i < b.N; i++ {
		onDevice(d, clone(orig), Resident.SinglePassBitonic)
	}
}

func BenchmarkParallelQuicksort(b *testing.B) {
	orig := benchBatches(5000, 12)
	b.SetBytes(int64(len(orig.Data) * 4))
	for i := 0; i < b.N; i++ {
		ParallelQuicksort(clone(orig), 0)
	}
}

func BenchmarkSerialQuicksort(b *testing.B) {
	orig := benchBatches(5000, 12)
	b.SetBytes(int64(len(orig.Data) * 4))
	for i := 0; i < b.N; i++ {
		ParallelQuicksort(clone(orig), 1)
	}
}

func BenchmarkDeviceRadixSort(b *testing.B) {
	d := gpu.NewDevice(gpu.M2050())
	orig := benchBatches(1, 4096)
	b.SetBytes(int64(len(orig.Data) * 4))
	for i := 0; i < b.N; i++ {
		c := clone(orig)
		buf := gpu.Alloc[uint32](d, len(c.Data))
		buf.CopyIn(c.Data)
		RadixSortU32(d, buf, 17)
		buf.Free()
	}
}
