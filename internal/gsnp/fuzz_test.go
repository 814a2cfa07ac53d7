package gsnp

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
)

// fuzzBlocks is the likelihood_comp grid of the fuzz window: at 256 blocks
// of likeliBlock threads the launch reaches minFanoutLanes (gpu), so at
// GOMAXPROCS=2 it is spread over two host goroutines and at GOMAXPROCS=1 it
// runs inline.
const fuzzBlocks = 256

// FuzzSparseLikelihoodGPU holds the device likelihood_comp — dep_count in
// per-thread local memory — to the host's likelihoodRange, bit for bit, on
// sorted base_word segments drawn from the input. Segment s sits in block s,
// at a lane the input picks, so consecutive blocks run over the same local
// words. Each segment is read as
//
//	flags, depth-1, lane, strand/coord, then one word per byte (flags&1: every
//	word on the segment's (strand, coord)) or per byte pair (base, score,
//	strand and coord each drawn), or flags&2: depth copies of one word
//
// so one input reaches depths above bayes.NQ on a single dep_count slot
// (the adjust table's last row) as cheaply as scattered mixed-base segments.
func FuzzSparseLikelihoodGPU(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 9, 3, 0x2a, 0x05, 0x45, 0x85, 0xc5, 0x06, 0x46, 0x86, 0xc6, 0x07, 0x47})
	f.Add([]byte{2, 150, 200, 0x31, 2, 149, 201, 0x31, 3, 120, 0, 0x10})
	f.Add([]byte{0, 4, 17, 0, 0x10, 0x20, 0x50, 0x21, 0x90, 0x20, 0xd0, 0x21, 0x10, 0x20, 0, 5, 17, 0, 0x11, 0x20, 0x51, 0x21})

	eng, err := New(Config{Mode: ModeGPU, Device: gpu.NewDevice(gpu.M2050())})
	if err != nil {
		f.Fatal(err)
	}
	eng.tables = testTables()
	eng.run = &pipeline.RunState{Stride: pipeline.MinStride}
	if err := eng.loadTables(); err != nil {
		f.Fatal(err)
	}
	f.Cleanup(eng.unloadTables)
	w := &window{}

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzWindow(w, data, eng.run.Stride)
		eng.cfg.Device.ResetStats() // keep the launch log from growing
		eng.likelihoodCompCPU(w)
		want := slices.Clone(w.typeLikely)
		for _, procs := range []int{1, 2} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				eng.likelihoodCompGPU(w)
			}()
			for i, v := range w.typeLikely {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					site := i / dna.NGenotypes
					t.Fatalf("GOMAXPROCS=%d: site %d genotype %d: device %v, host %v; segment %x",
						procs, site, i%dna.NGenotypes, v, want[i], w.words.Array(site))
				}
			}
		}
	})
}

// fuzzWindow lays the segments data describes into w's sorted base_word
// Batches over fuzzBlocks·likeliBlock sites; every other site is empty.
func fuzzWindow(w *window, data []byte, readLen int) {
	n := fuzzBlocks * likeliBlock
	type seg struct {
		site  int
		words []uint32
	}
	var segs []seg
	for len(segs) < fuzzBlocks && len(data) >= 4 {
		flags, depth, lane, slot := data[0], int(data[1])+1, int(data[2])%likeliBlock, data[3]
		data = data[4:]
		strand, coord := uint32(slot&1), int(slot>>1)%readLen
		var words []uint32
		for len(words) < depth {
			var base, score byte
			switch {
			case flags&2 != 0:
				base, score = slot>>5, slot
			case len(data) == 0 || flags&1 == 0 && len(data) < 2:
				depth = len(words)
				continue
			default:
				base, score, data = data[0]>>6, data[0], data[1:]
				if flags&1 == 0 {
					strand, coord, data = uint32(data[0]&1), int(data[0]>>1)%readLen, data[1:]
				}
			}
			words = append(words, packWord(dna.Base(base&3), dna.Quality(score&(dna.QMax-1)), coord, strand))
		}
		slices.Sort(words)
		segs = append(segs, seg{len(segs)*likeliBlock + lane, words})
	}

	w.start, w.end, w.n = 0, n, n
	total := 0
	for _, s := range segs {
		total += len(s.words)
	}
	w.words.Reset(n, total)
	b := w.words.Bounds
	next, off := 0, int32(0)
	for _, s := range segs {
		for ; next <= s.site; next++ {
			b[next] = off
		}
		copy(w.words.Data[off:], s.words)
		off += int32(len(s.words))
	}
	for ; next <= n; next++ {
		b[next] = off
	}
}
