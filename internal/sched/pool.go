package sched

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrPoolClosed is returned by Pool.Submit after Close has begun.
var ErrPoolClosed = errors.New("sched: pool closed")

// PoolConfig configures a Pool.
type PoolConfig struct {
	// Workers is the number of worker goroutines (<= 0 selects GOMAXPROCS).
	Workers int
	// Policy is the fault-tolerance contract applied to every task of every
	// job: deadlines, panic containment and retries, exactly as in
	// Run. ContinueOnError is implied — one job's failure never
	// cancels another job, and within a job every task still runs.
	Policy Policy
	// OnDequeue, when set, observes dispatch order: it is called under the
	// pool's scheduling lock, in exactly the order tasks are handed to
	// workers, with the owning job's id and the task's index within its
	// job. Tests use it to assert fairness deterministically; the service
	// uses it to mark chromosomes running.
	OnDequeue func(job string, index int)
}

// Pool is the long-lived counterpart of Run: a fixed set of workers
// (each with its own worker-local state, e.g. a genomejob.Worker) serving many
// jobs submitted over time. Scheduling is fair across jobs by round-robin:
// a worker looking for work takes ONE task from the least-recently-served
// job with pending tasks, so a 24-chromosome whole genome queued first
// cannot starve a single-chromosome request submitted later — the small
// job's task is dispatched within one rotation (at most one task per
// active job) of its submission.
//
// Within a job, tasks dispatch in input order and every result carries its
// input index, so a consumer can reassemble input order from the
// completion-order stream. Jobs are isolated: cancellation and failure of
// one job never affect another job's tasks or bytes.
type Pool[R, L any] struct {
	cfg      PoolConfig
	newLocal func(worker int) L

	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*poolJob[R, L] // jobs with undispatched tasks, round-robin order
	live   map[*poolJob[R, L]]struct{}
	closed bool
	wg     sync.WaitGroup
}

// poolJob is the pool-internal state of one submitted job.
type poolJob[R, L any] struct {
	id      string
	tasks   []Task[R, L]
	next    int // next undispatched task index
	pending int // tasks not yet resolved (running, queued or undelivered)
	inRing  bool
	ctx     context.Context
	cancel  context.CancelCauseFunc
	results chan JobResult[R]
	done    chan struct{}
}

// JobResult is one task's outcome, tagged with its index within the job.
// Results arrive in completion order; Index recovers input order.
type JobResult[R any] struct {
	// Index is the task's position in the slice passed to Submit.
	Index int
	Result[R]
}

// Job is the caller's handle on a submitted job.
type Job[R any] struct {
	results  chan JobResult[R]
	done     chan struct{}
	cancelFn func(cause error)
}

// Results streams task outcomes in completion order. The channel is
// buffered to the job's task count — workers never block on a slow
// consumer — and closes once every task has resolved (finished, failed or
// skipped by cancellation).
func (j *Job[R]) Results() <-chan JobResult[R] { return j.results }

// Done closes when every task of the job has resolved.
func (j *Job[R]) Done() <-chan struct{} { return j.done }

// Cancel cancels the job: undispatched tasks resolve immediately as
// Skipped with cause as their error, and running tasks see their context
// cancelled (the engines abort at the next window boundary). Other jobs
// are unaffected. Cancel is idempotent; a nil cause means
// context.Canceled.
func (j *Job[R]) Cancel(cause error) { j.cancelFn(cause) }

// NewPool starts the workers and returns the pool. newLocal runs once in
// each worker goroutine before it takes tasks, exactly as in Run.
func NewPool[R, L any](cfg PoolConfig, newLocal func(worker int) L) *Pool[R, L] {
	if cfg.Workers <= 0 {
		cfg.Workers = Clamp(cfg.Workers, 1<<30)
	}
	p := &Pool[R, L]{cfg: cfg, newLocal: newLocal, live: make(map[*poolJob[R, L]]struct{})}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		go p.worker(w)
	}
	return p
}

// Submit enqueues a job's tasks behind every currently-active job's next
// turn and returns its handle. An empty task slice yields an
// already-finished job. Submit fails only after Close has begun.
func (p *Pool[R, L]) Submit(id string, tasks []Task[R, L]) (*Job[R], error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &poolJob[R, L]{
		id: id, tasks: tasks, pending: len(tasks),
		ctx: ctx, cancel: cancel,
		results: make(chan JobResult[R], len(tasks)),
		done:    make(chan struct{}),
	}
	if len(tasks) == 0 {
		cancel(nil)
		close(j.results)
		close(j.done)
	} else {
		p.live[j] = struct{}{}
		p.ring = append(p.ring, j)
		j.inRing = true
		p.cond.Broadcast()
	}
	return &Job[R]{
		results: j.results, done: j.done,
		cancelFn: func(cause error) { p.cancelJob(j, cause) },
	}, nil
}

// CancelAll cancels every live job (used for forced shutdown).
func (p *Pool[R, L]) CancelAll(cause error) {
	p.mu.Lock()
	jobs := make([]*poolJob[R, L], 0, len(p.live))
	for j := range p.live {
		jobs = append(jobs, j)
	}
	p.mu.Unlock()
	for _, j := range jobs {
		p.cancelJob(j, cause)
	}
}

// Close drains the pool gracefully: no new jobs are accepted, already
// queued tasks still run, and Close returns once every worker has exited.
// Combine with CancelAll for a forced shutdown.
func (p *Pool[R, L]) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}

// worker executes tasks until the pool is closed and drained.
func (p *Pool[R, L]) worker(w int) {
	defer p.wg.Done()
	local := p.newLocal(w)
	p.mu.Lock()
	for {
		if j, idx, ok := p.pickLocked(); ok {
			p.mu.Unlock()
			t0 := time.Now()
			v, err, attempts, panicked := execute(j.ctx, &p.cfg.Policy, j.tasks[idx], local)
			p.mu.Lock()
			//gsnplint:ignore lockhold each job's results channel is buffered to its full task count, so deliverLocked's send can never block
			p.deliverLocked(j, JobResult[R]{Index: idx, Result: Result[R]{
				Name: j.tasks[idx].Name, Value: v, Err: err,
				Wall: time.Since(t0), Worker: w, Attempts: attempts, Panicked: panicked,
			}})
			continue
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.cond.Wait()
	}
}

// pickLocked pops the next (job, task) pair in round-robin order: the job
// at the front of the ring gives up exactly one task and, if it still has
// undispatched tasks, rejoins at the back.
func (p *Pool[R, L]) pickLocked() (*poolJob[R, L], int, bool) {
	for len(p.ring) > 0 {
		j := p.ring[0]
		p.ring = p.ring[1:]
		j.inRing = false
		if j.next >= len(j.tasks) {
			continue // fully dispatched (e.g. drained by cancellation)
		}
		idx := j.next
		j.next++
		if j.next < len(j.tasks) {
			p.ring = append(p.ring, j)
			j.inRing = true
		}
		if p.cfg.OnDequeue != nil {
			p.cfg.OnDequeue(j.id, idx)
		}
		return j, idx, true
	}
	return nil, 0, false
}

// deliverLocked records one resolved task and finishes the job when it was
// the last. The results channel is buffered to len(tasks), so the send
// never blocks.
func (p *Pool[R, L]) deliverLocked(j *poolJob[R, L], r JobResult[R]) {
	j.results <- r
	j.pending--
	if j.pending == 0 {
		j.cancel(nil) // release the job context's resources
		close(j.results)
		close(j.done)
		delete(p.live, j)
	}
}

// cancelJob implements Job.Cancel: resolve every undispatched task as
// skipped and cancel the job context for running ones.
func (p *Pool[R, L]) cancelJob(j *poolJob[R, L], cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	j.cancel(cause)
	for j.next < len(j.tasks) {
		idx := j.next
		j.next++
		//gsnplint:ignore lockhold each job's results channel is buffered to its full task count, so deliverLocked's send can never block
		p.deliverLocked(j, JobResult[R]{Index: idx, Result: Result[R]{
			Name: j.tasks[idx].Name, Err: cause, Worker: -1, Skipped: true,
		}})
	}
	if j.inRing {
		for i, rj := range p.ring {
			if rj == j {
				p.ring = append(p.ring[:i], p.ring[i+1:]...)
				break
			}
		}
		j.inRing = false
	}
}
