// Sortlab: the multipass batch sorting network of Section IV-C — build
// the per-site base_word arrays of a realistic window and sort them with
// the paper's three GPU schemes plus the CPU baselines, comparing the
// simulated device time and the padded-element waste.
//
//	go run ./examples/sortlab
package main

import (
	"fmt"
	"time"

	"gsnp/internal/gpu"
	"gsnp/internal/gsnp"
	"gsnp/internal/pipeline"
	"gsnp/internal/seqsim"
	"gsnp/internal/sortnet"
)

func main() {
	// A window of real per-site base_word arrays: mostly tens of
	// elements, many empty — the size distribution of Figure 4(b).
	ds := seqsim.BuildDataset(seqsim.ChromosomeSpec{
		Name: "chrSort", Length: 60_000, Depth: 11, MaskFraction: 0.1, Seed: 5,
	})
	orig := buildWords(ds)
	sizes := map[string]int{}
	for i := 0; i < orig.NumArrays(); i++ {
		switch s := orig.SizeOf(i); {
		case s <= 1:
			sizes["0-1"]++
		case s <= 8:
			sizes["2-8"]++
		case s <= 16:
			sizes["9-16"]++
		case s <= 32:
			sizes["17-32"]++
		case s <= 64:
			sizes["33-64"]++
		default:
			sizes[">64"]++
		}
	}
	fmt.Printf("window: %d arrays, %d elements; size classes: %v\n\n",
		orig.NumArrays(), len(orig.Data), sizes)

	clone := func() *sortnet.Batches {
		return &sortnet.Batches{Data: append([]uint32(nil), orig.Data...), Bounds: orig.Bounds}
	}

	// Each scheme sorts its own upload of the window, as the GPU engine
	// sorts the words counting left on the device.
	d := gpu.NewDevice(gpu.M2050())
	sortOn := func(sort func(sortnet.Resident, *gpu.Device) sortnet.Stats) sortnet.Stats {
		r := orig.Upload(d)
		defer r.Words.Free()
		return sort(r, d)
	}
	mp := sortOn(sortnet.Resident.MultipassBitonic)
	sp := sortOn(sortnet.Resident.SinglePassBitonic)
	ne := sortOn(sortnet.Resident.NonEqBitonic)

	fmt.Printf("%-28s %12s %14s %10s\n", "scheme", "sim time", "elements", "vs MP")
	show := func(name string, st sortnet.Stats) {
		fmt.Printf("%-28s %11.4gs %14d %9.1fx\n", name, st.SimSeconds, st.ElementsSorted, st.SimSeconds/mp.SimSeconds)
	}
	show("bitonic MP (multipass)", mp)
	show("bitonic SP (single pass)", sp)
	show("bitonic noneq", ne)
	fmt.Printf("(paper, Fig. 7b: single pass sorts ~4x the elements and runs ~5x slower)\n\n")

	// CPU baselines on the same window.
	b := clone()
	start := time.Now()
	sortnet.ParallelQuicksort(b, 0)
	parallel := time.Since(start)
	b = clone()
	start = time.Now()
	sortnet.ParallelQuicksort(b, 1)
	serial := time.Since(start)
	fmt.Printf("CPU quicksort: serial %v, parallel %v\n", serial.Round(time.Microsecond), parallel.Round(time.Microsecond))

	// The per-array device radix sort baseline on a small sample.
	sample := &sortnet.Batches{Data: append([]uint32(nil), orig.Data[:orig.Bounds[512]]...), Bounds: orig.Bounds[:513]}
	sr := sortnet.SequentialRadixGPU(d, sample, 17)
	fmt.Printf("per-array GPU radix (512 arrays): %.4gs simulated, %d kernel launches — the underutilisation of Fig. 7a\n",
		sr.SimSeconds, sr.Launches)
}

// buildWords extracts the per-site base_word arrays of the dataset.
func buildWords(ds *seqsim.Dataset) *sortnet.Batches {
	n := len(ds.Ref.Seq)
	sizes := make([]int32, n+1)
	type rec struct {
		site int
		word uint32
	}
	var obs []rec
	for i := range ds.Reads {
		rd := &ds.Reads[i]
		for pos := rd.Pos; pos < rd.Pos+len(rd.Bases) && pos < n; pos++ {
			o, ok := pipeline.ObsOf(rd, pos)
			if !ok {
				continue
			}
			obs = append(obs, rec{pos, gsnp.PackWord(o)})
			sizes[pos+1]++
		}
	}
	b := &sortnet.Batches{Bounds: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		b.Bounds[i+1] = b.Bounds[i] + sizes[i+1]
	}
	b.Data = make([]uint32, len(obs))
	cursor := make([]int32, n)
	for _, o := range obs {
		b.Data[b.Bounds[o.site]+cursor[o.site]] = o.word
		cursor[o.site]++
	}
	return b
}
