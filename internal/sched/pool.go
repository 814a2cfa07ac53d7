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
	// Policy is the retry contract applied to every task of every job:
	// deadlines and retries. Every task is contained whatever the policy:
	// a panic becomes its *par.PanicError, and one task's failure cancels
	// neither its siblings nor another job.
	Policy Policy
	// OnDequeue, when set, observes dispatch order: it is called under the
	// pool's scheduling lock, in exactly the order tasks are handed to
	// workers, with the owning job's id and the task's index within its
	// job. Tests use it to assert fairness deterministically; the service
	// uses it to mark chromosomes running.
	OnDequeue func(job string, index int)
}

// Pool is the scheduler: a fixed set of workers (each with its own
// worker-local state, e.g. a genomejob.Worker) serving many jobs submitted
// over time; Run is one job on a Pool of its own. Scheduling is fair
// across jobs by round-robin: a worker looking for work takes ONE task
// from the least-recently-served job with pending tasks, so a
// 24-chromosome whole genome queued first cannot starve a
// single-chromosome request submitted later — the small job's task is
// dispatched within one rotation (at most one task per active job) of its
// submission.
//
// Within a job, tasks dispatch in input order and every result carries its
// input index, so a consumer can reassemble input order from the
// completion-order stream. A job's cancellation is the context it was
// submitted with. Jobs are isolated: cancellation and failure of one job
// never affect another job's tasks or bytes.
type Pool[R, L any] struct {
	cfg      PoolConfig
	newLocal func(worker int) L

	mu     sync.Mutex
	cond   *sync.Cond
	ring   []*poolJob[R, L] // jobs with undispatched tasks (or cancelled since), round-robin order
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
	ctx     context.Context
	cancel  context.CancelCauseFunc
	stop    func() bool // unregisters skipQueued once the job has resolved
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
	results chan JobResult[R]
	done    chan struct{}
}

// Results streams task outcomes in completion order. The channel is
// buffered to the job's task count — workers never block on a slow
// consumer — and closes once every task has resolved (finished, failed or
// skipped by cancellation).
func (j *Job[R]) Results() <-chan JobResult[R] { return j.results }

// Done closes when every task of the job has resolved.
func (j *Job[R]) Done() <-chan struct{} { return j.done }

// NewPool starts the workers and returns the pool. newLocal runs once in
// each worker goroutine before it takes tasks, and every task that worker
// executes receives the same L value; nil leaves L at its zero value.
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
// turn and returns its handle. The job's context derives from ctx: when
// ctx ends, every undispatched task resolves as Skipped with
// context.Cause(ctx), and running tasks see their context end (the engines
// abort at the next window boundary). An empty task slice yields an
// already-finished job. Submit fails only after Close has begun.
func (p *Pool[R, L]) Submit(ctx context.Context, id string, tasks []Task[R, L]) (*Job[R], error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil, ErrPoolClosed
	}
	ctx, cancel := context.WithCancelCause(ctx)
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
		j.stop = context.AfterFunc(ctx, func() { p.skipQueued(j) })
		p.cond.Broadcast()
	}
	return &Job[R]{results: j.results, done: j.done}, nil
}

// CancelAll cancels every live job's context with cause, exactly as if
// the context each was submitted with had ended (used for forced
// shutdown).
func (p *Pool[R, L]) CancelAll(cause error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for j := range p.live {
		j.cancel(cause)
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

// worker executes tasks until the pool is closed and drained. It is the
// only loop in the package that runs tasks.
func (p *Pool[R, L]) worker(w int) {
	defer p.wg.Done()
	var local L
	if p.newLocal != nil {
		local = p.newLocal(w)
	}
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
// undispatched tasks, rejoins at the back. A job whose context has ended
// leaves the ring without dispatching: its context's AfterFunc resolves
// the rest as skipped, so no task of it starts once it is cancelled.
func (p *Pool[R, L]) pickLocked() (*poolJob[R, L], int, bool) {
	for len(p.ring) > 0 {
		j := p.ring[0]
		p.ring = p.ring[1:]
		if j.next >= len(j.tasks) || j.ctx.Err() != nil {
			continue // fully dispatched, or cancelled
		}
		idx := j.next
		j.next++
		if j.next < len(j.tasks) {
			p.ring = append(p.ring, j)
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
		j.stop()
		j.cancel(nil) // release the job context's resources
		close(j.results)
		close(j.done)
		delete(p.live, j)
	}
}

// skipQueued runs when a job's context ends: every undispatched task
// resolves as skipped with the context's cause. Running tasks see their
// context end.
func (p *Pool[R, L]) skipQueued(j *poolJob[R, L]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	cause := context.Cause(j.ctx)
	for j.next < len(j.tasks) {
		idx := j.next
		j.next++
		//gsnplint:ignore lockhold each job's results channel is buffered to its full task count, so deliverLocked's send can never block
		p.deliverLocked(j, JobResult[R]{Index: idx, Result: Result[R]{
			Name: j.tasks[idx].Name, Err: cause, Worker: -1, Skipped: true,
		}})
	}
}
