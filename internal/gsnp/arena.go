package gsnp

import (
	"gsnp/internal/bayes"
	"gsnp/internal/par"
)

// Arena is the reusable per-window working set — the storage side of the
// paper's recycle component (Figure 2, component 7). Every slice a window
// needs on the host (observation arrays, base_word Batches, counts,
// likelihoods, rank/quality arrays, result rows) lives here and is
// grow-only: a window resets lengths, never releases capacity, so
// steady-state windows allocate nothing. The score tables (p_matrix and
// new_p_matrix, 7.3 MB that each run rebuilds in place) live here too,
// except the GPU engine's new_p_matrix: it is built in its device buffer,
// and the arena drops its view when the run frees the buffer. What the GPU
// engine reads back or uploads in bulk lives in device buffers, whose
// storage the device recycles.
//
// The zero value is ready. An Arena serves one engine run at a time but may
// be handed from run to run, across modes — which is how a whole-genome
// worker (genomejob.Worker) amortises window storage over every chromosome
// it processes.
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

	// join is the fork-join the window's sharded passes run through. Kept
	// here, a warm window forks without allocating its join state; a shard
	// panic comes out of it on the window's goroutine, where the driver's
	// quarantine can contain it, after every shard has stopped writing the
	// buffers above.
	join par.Group
}

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
	w.runs = w.runs[:0]
	w.obsWord = w.obsWord[:0]
	w.maxExtent = 0
}
