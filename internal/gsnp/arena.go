package gsnp

import (
	"gsnp/internal/bayes"
	"gsnp/internal/par"
	"gsnp/internal/pipeline"
)

// Arena is the reusable per-window working set — the storage side of the
// paper's recycle component (Figure 2, component 7). Every slice a window
// needs (observation arrays, base_word Batches, counts, likelihoods,
// rank/quality arrays, result rows, GPU host staging) lives here and is
// grow-only: a window resets lengths, never releases capacity, so
// steady-state windows allocate nothing. The per-run storage lives here
// too: the score tables (p_matrix and new_p_matrix, 7.3 MB that each run
// rebuilds in place) and the two-pass driver's own Scratch (calibration
// counters, read buffer, output buffer), which the arena lends to whichever
// engine — sparse or dense — runs the chromosome.
//
// An Arena serves one engine run at a time but may be handed from run to
// run — including across engines and modes — which is how the concurrent
// chromosome scheduler (internal/sched) amortises window storage across a
// whole genome: one Arena per pool worker, every chromosome it processes
// reuses the same buffers.
type Arena struct {
	w window

	// workers holds the per-worker likelihood scratch: the epoch-tagged
	// dep_count array that is the only cross-site state of Algorithm 4.
	// Giving each compute worker its own copy is what makes the
	// likelihood/posterior site sharding race-free without changing a
	// single arithmetic operation.
	workers []depWorker

	// tables is cal_p_matrix's output. A run rebuilds it in place, so it
	// describes the arena's latest run only.
	tables bayes.Tables

	scratch pipeline.Scratch

	// join is the fork-join the window's sharded passes run through. Kept
	// here, a warm window forks without allocating its join state; a shard
	// panic comes out of it on the window's goroutine, where the driver's
	// quarantine can contain it, after every shard has stopped writing the
	// buffers above.
	join par.Group
}

// Scratch returns the driver storage the arena carries from run to run.
func (a *Arena) Scratch() *pipeline.Scratch { return &a.scratch }

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

// depWorker is one compute worker's dep_count scratch. Entries carry an
// epoch tag in the high half-word (see likelihoodRange); the tag makes
// stale entries self-invalidating, so the array is never swept except on
// resize or tag wrap.
type depWorker struct {
	dep   []uint32
	epoch uint32
}

// ensureWorkers sizes the per-worker scratch for k workers at dep_count
// stride readLen.
func (a *Arena) ensureWorkers(k, readLen int) {
	if len(a.workers) < k {
		a.workers = append(a.workers, make([]depWorker, k-len(a.workers))...)
	}
	for i := 0; i < k; i++ {
		if len(a.workers[i].dep) < 2*readLen {
			a.workers[i].dep = make([]uint32, 2*readLen)
			a.workers[i].epoch = 0
		}
	}
}

// grow returns s with length n, reusing capacity when possible. Contents
// are unspecified: callers either overwrite every element or clear()
// explicitly.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// reset prepares the arena's window for [start, end).
func (w *window) reset(start, end int) {
	w.start, w.end, w.n = start, end, end-start
	w.obsSite = w.obsSite[:0]
	w.obsWord = w.obsWord[:0]
}

// ar returns the engine's arena: Config.Arena when given, else a private
// one created on first use.
func (e *Engine) ar() *Arena {
	if e.arena == nil {
		if e.arena = e.cfg.Arena; e.arena == nil {
			e.arena = NewArena()
		}
	}
	return e.arena
}
