package gsnp

import (
	"sync"

	"gsnp/internal/bayes"
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
// An Arena serves one Engine.Run at a time but may be handed from run to
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
}

// Scratch returns the driver storage the arena carries from run to run.
func (a *Arena) Scratch() *pipeline.Scratch { return &a.scratch }

// NewArena returns an empty arena; buffers grow on first use.
func NewArena() *Arena { return &Arena{} }

// arenaPool recycles arenas across Engine.Run calls that were not handed
// an explicit Config.Arena.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

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

// computeJob is one shard of a site-parallel pass. Jobs are plain values
// sent over a channel to the persistent worker pool, so dispatching a
// window costs no allocations (no closures, no per-window goroutines).
type computeJob struct {
	eng    *Engine
	w      *window
	kind   uint8
	lo, hi int
	worker int
	// fn, when non-nil, replaces the kind dispatch — a test seam for
	// exercising the pool's panic containment.
	fn func()
}

const (
	jobLikelihood uint8 = iota
	jobPosterior
)

func (j computeJob) run() {
	if j.fn != nil {
		j.fn()
		return
	}
	switch j.kind {
	case jobLikelihood:
		j.eng.likelihoodRange(j.w, j.lo, j.hi, j.worker)
	case jobPosterior:
		j.eng.posteriorRange(j.w, j.lo, j.hi)
	}
}

// computePool is the engine-owned set of persistent goroutines that
// execute likelihood/posterior shards. The pool lives for one Run: its
// workers block on the job channel between windows.
//
// A panic inside a pool worker would normally crash the whole process —
// nothing on a fresh goroutine's stack recovers — defeating window-level
// quarantine. Workers therefore trap the first panic (value + stack at
// the point of failure) and runSharded re-raises it on the dispatching
// goroutine once the window's shards drain, where the engine's window
// containment can convert it to a quarantine record.
type computePool struct {
	jobs chan computeJob
	wg   sync.WaitGroup

	mu       sync.Mutex
	panicked *pipeline.PanicError
}

// newComputePool starts size-1 workers: the dispatching goroutine always
// runs shard 0 inline, so k-way sharding needs only k-1 helpers.
func newComputePool(size int) *computePool {
	p := &computePool{jobs: make(chan computeJob, size)}
	for i := 1; i < size; i++ {
		go func() {
			for j := range p.jobs {
				p.runOne(j)
			}
		}()
	}
	return p
}

// runOne executes one shard, trapping a panic instead of unwinding the
// worker goroutine. Only the first panic of a window is kept; wg.Done
// always runs so the dispatcher never deadlocks on a dead shard.
func (p *computePool) runOne(j computeJob) {
	defer func() {
		if pe := pipeline.Recovered(recover()); pe != nil {
			p.mu.Lock()
			if p.panicked == nil {
				p.panicked = pe
			}
			p.mu.Unlock()
		}
		p.wg.Done()
	}()
	j.run()
}

// takePanic returns and clears the first trapped worker panic.
func (p *computePool) takePanic() *pipeline.PanicError {
	p.mu.Lock()
	defer p.mu.Unlock()
	pe := p.panicked
	p.panicked = nil
	return pe
}

func (p *computePool) stop() { close(p.jobs) }

// runSharded splits sites [0, w.n) into contiguous ranges and runs kind
// over them in parallel. Each shard writes only its own disjoint index
// range of the output arrays and likelihood shards use per-worker
// dep_count scratch, so results are byte-identical to the serial order at
// any worker count. The effective width adapts to the window: requesting
// more workers than the host has CPUs, or more shards than the window has
// sites to amortise the dispatch cost, silently serializes (sharding never
// changes output bytes, only wall time).
func (e *Engine) runSharded(w *window, kind uint8) {
	k := e.cfg.ComputeWorkers
	switch {
	case e.pool == nil || k < 1:
		k = 1
	case e.cfg.forceShardWorkers > 0:
		k = e.cfg.forceShardWorkers
	default:
		k = effectiveComputeWorkers(k, w.n)
	}
	if k > w.n {
		k = w.n
	}
	if kind == jobLikelihood {
		e.ar().ensureWorkers(max(k, 1), e.run.Stride)
	}
	if k <= 1 {
		computeJob{eng: e, w: w, kind: kind, lo: 0, hi: w.n}.run()
		return
	}
	chunk := (w.n + k - 1) / k
	for wk := 1; wk < k; wk++ {
		lo := wk * chunk
		hi := lo + chunk
		if hi > w.n {
			hi = w.n
		}
		e.pool.wg.Add(1)
		e.pool.jobs <- computeJob{eng: e, w: w, kind: kind, lo: lo, hi: hi, worker: wk}
	}
	func() {
		// Even if the inline shard panics, wait for the helper shards
		// before unwinding: the next window recycles this window's arena
		// buffers, and a still-running shard writing into them would race.
		defer e.pool.wg.Wait()
		computeJob{eng: e, w: w, kind: kind, lo: 0, hi: chunk}.run()
	}()
	if pe := e.pool.takePanic(); pe != nil {
		panic(pe)
	}
}

// ar returns the engine's arena: Config.Arena when given, else a private
// one created on first use (RunContext installs a pooled one instead).
func (e *Engine) ar() *Arena {
	if e.arena == nil {
		if e.arena = e.cfg.Arena; e.arena == nil {
			e.arena = NewArena()
		}
	}
	return e.arena
}
