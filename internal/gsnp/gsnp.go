// Package gsnp implements the paper's system: the GPU-accelerated SNP
// detection pipeline of Figure 2 with the sparse base_word representation
// (Section IV-B), the multipass batch sorting of likelihood_sort (IV-C),
// the precomputed new score table (IV-D), shared-memory type_likely (IV-E)
// and GPU-compressed output (V). A CPU mode (GSNP_CPU in the paper's
// figures) runs the identical sparse algorithm without the device.
//
// All modes and kernel variants produce result tables byte-identical to the
// dense SOAPsnp baseline — the consistency requirement of Section IV-G —
// because every engine consumes the same CPU-built tables and performs the
// same floating-point operations in the same canonical order.
package gsnp

import (
	"fmt"
	"runtime"

	"gsnp/internal/bayes"
	"gsnp/internal/dna"
	"gsnp/internal/gpu"
	"gsnp/internal/pipeline"
	"gsnp/internal/sortnet"
)

// Mode selects the execution engine.
type Mode int

const (
	// ModeGPU runs counting, likelihood, posterior and output
	// compression on the simulated device (GSNP in the paper).
	ModeGPU Mode = iota
	// ModeCPU runs the same sparse algorithm sequentially on the host
	// (GSNP_CPU in the paper's figures).
	ModeCPU
)

// Variant selects the likelihood_comp kernel implementation, the subject
// of Figure 8 and Table III.
type Variant int

const (
	// VariantOptimized uses shared-memory type_likely and the new score
	// table (the shipping configuration).
	VariantOptimized Variant = iota
	// VariantBaseline uses global-memory type_likely and p_matrix with
	// runtime logarithms.
	VariantBaseline
	// VariantShared uses shared-memory type_likely but keeps p_matrix.
	VariantShared
	// VariantNewTable uses the new score table but keeps type_likely in
	// global memory.
	VariantNewTable
)

func (v Variant) String() string {
	switch v {
	case VariantOptimized:
		return "optimized"
	case VariantBaseline:
		return "baseline"
	case VariantShared:
		return "w/ shared"
	case VariantNewTable:
		return "w/ new table"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// SortMethod selects the likelihood_sort implementation (Figure 7(b)).
type SortMethod int

const (
	// SortMultipass is the paper's six-pass size-classed batch bitonic.
	SortMultipass SortMethod = iota
	// SortSinglePass pads every array to the largest size.
	SortSinglePass
	// SortNonEq sorts different sizes directly with imbalanced blocks.
	SortNonEq
)

// Config holds what only the sparse kernel reads. Everything a run shares
// with the other engines — chromosome, reference, priors, window size, output
// codec, prefetch, quarantine — is pipeline.Config, handed to pipeline.Run
// next to the Engine.
type Config struct {
	// Mode selects GPU or CPU execution.
	Mode Mode
	// Device is the simulated GPU (required for ModeGPU).
	Device *gpu.Device
	// Variant selects the likelihood_comp kernel (GPU mode).
	Variant Variant
	// Sort selects the likelihood_sort implementation (GPU mode).
	Sort SortMethod
	// SortWorkers bounds the host worker count of likelihood_sort in CPU
	// mode. Zero selects GOMAXPROCS; the Figure 6/paper-comparison
	// harness pins it to 1, the paper's single-threaded GSNP_CPU
	// configuration.
	SortWorkers int
	// ComputeWorkers bounds the host worker count of the site-parallel
	// likelihood_comp + posterior passes in CPU mode. Zero selects
	// GOMAXPROCS; the paper-comparison harness pins it to 1. Sites are
	// sharded into contiguous disjoint index ranges with per-worker
	// dep_count scratch, so output is byte-identical at every setting.
	// The count is an upper bound: each window caps it at the host CPU
	// count and at one shard per minShardSites sites, so small windows
	// and single-CPU hosts serialize instead of paying dispatch overhead
	// for no parallelism.
	ComputeWorkers int
	// forceShardWorkers pins the shard count, bypassing the adaptive cap.
	// Test seam: byte-identity, allocation and panic tests must exercise
	// the fork-join even on hosts where the cap would serialize.
	forceShardWorkers int
	// Arena supplies the per-window working-set recycler (component 7).
	// Nil gives the engine a private one; a whole-genome worker hands every
	// engine it builds the same Arena, so consecutive chromosome runs reuse
	// one working set.
	Arena *Arena
}

// DefaultWindow is GSNP's window size from the paper's setup (Section
// VI-A); the caller of pipeline.Run sets it as pipeline.Config.Window.
const DefaultWindow = 256000

func (c Config) withDefaults() Config {
	if c.SortWorkers <= 0 {
		c.SortWorkers = runtime.GOMAXPROCS(0)
	}
	if c.ComputeWorkers <= 0 {
		c.ComputeWorkers = runtime.GOMAXPROCS(0)
	}
	if c.Arena == nil {
		c.Arena = new(Arena)
	}
	return c
}

// Report holds the device-side measurements only this engine takes, next to
// the driver's pipeline.Report; read it off the engine after the run.
type Report struct {
	// SortStats aggregates the likelihood_sort work (GPU mode).
	SortStats sortnet.Stats
	// LikeliStats aggregates the device counters of the likelihood_comp
	// kernels only — the Table III measurement (GPU mode).
	LikeliStats gpu.Stats
	// PeakDeviceBytes is the run's high-water device memory use: the
	// tables plus the most buffers a window and the output codec held at
	// once (GPU mode).
	PeakDeviceBytes int64
}

// PackWord encodes an observation as a 32-bit base_word. The quality field
// stores 63-score so that sorting words ascending yields Algorithm 1's
// canonical order: base ascending, score descending, coordinate ascending,
// strand ascending. The uniq flag rides spare bit 18, above the sort key:
// counting strips it (see wordUniqBit) before the words enter a Batches,
// so it never perturbs the canonical order.
func PackWord(o pipeline.Obs) uint32 {
	flags := uint32(o.Strand)
	if o.Uniq {
		flags |= wordUniqBit
	}
	return packWord(o.Base, o.Qual, int(o.Coord), flags)
}

// packWord is PackWord on an observation's fields; flags is the strand bit,
// plus wordUniqBit for a uniquely aligned read.
func packWord(base dna.Base, qual dna.Quality, cyc int, flags uint32) uint32 {
	return uint32(base)<<15 | uint32(dna.QMax-1-uint32(qual))<<9 | uint32(cyc)<<1 | flags
}

// UnpackWord decodes a base_word.
func UnpackWord(w uint32) pipeline.Obs {
	return pipeline.Obs{
		Base:   dna.Base(w >> 15 & 3),
		Qual:   dna.Quality(dna.QMax - 1 - w>>9&(dna.QMax-1)),
		Coord:  uint8(w >> 1 & (bayes.MaxReadLen - 1)),
		Strand: uint8(w & 1),
		Uniq:   w&wordUniqBit != 0,
	}
}

// wordKeyBits is the width of a base_word key (2+6+8+1).
const wordKeyBits = 17

// wordUniqBit flags a unique-hit observation. It sits above the sort key,
// where it would dominate any comparison of full 32-bit words, so the
// counting component masks it off when scattering words into the sort
// batches; only the flattened read_site output carries it.
const wordUniqBit = 1 << 18
