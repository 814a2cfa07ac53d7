// Package sched provides the bounded worker-pool scheduler used to run
// independent per-chromosome jobs concurrently: the paper's production
// workload is 24 separate chromosome data sets (Section VI-A), and nothing
// in the pipeline couples one chromosome to another, so the host can
// process several at once while each engine run stays internally
// sequential.
//
// Pool is the one scheduler: a fixed set of workers serving jobs, each job
// a slice of tasks whose context is its cancellation. Run is one job on a
// Pool of its own, for a caller with one batch of tasks. Every task is
// contained: a panic becomes its *par.PanicError, and no task's failure
// keeps a sibling from running.
//
// The scheduler is deliberately deterministic where it matters for the
// byte-identity guarantee (Section IV-G): tasks are dispatched in input
// order, results are returned indexed by input position regardless of
// completion order, and the error returned by Run is always the
// lowest-index failure, so a concurrent whole-genome run reports exactly
// what a serial run over the same inputs would report.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// Result is the outcome of one task, in input order.
type Result[R any] struct {
	// Name echoes the task name.
	Name string
	// Value is the task's return value (zero when Err is set or the task
	// was skipped).
	Value R
	// Err is the task's error, or the cancellation cause for skipped
	// tasks.
	Err error
	// Wall is the task's wall-clock execution time (zero when skipped).
	Wall time.Duration
	// Worker is the index of the worker that ran the task (-1 when
	// skipped).
	Worker int
	// Attempts is the number of executions the task's Policy spent on it
	// (1 with the zero policy; 0 when skipped).
	Attempts int
	// Panicked marks a task whose final attempt panicked; Err is then the
	// panic's *par.PanicError.
	Panicked bool
	// Skipped marks tasks that never started because their job's context
	// ended first.
	Skipped bool
}

// Stats summarises a pool run.
type Stats struct {
	// Workers is the number of workers actually used.
	Workers int
	// Wall is the end-to-end wall-clock time of the pool.
	Wall time.Duration
	// TaskWall sums the per-task wall times — the serial-equivalent cost.
	// TaskWall/Wall approximates the achieved parallel speedup.
	TaskWall time.Duration
	// Longest is the wall time of the slowest task, the lower bound on
	// pool wall time at any worker count.
	Longest time.Duration
	// LongestName names the slowest task.
	LongestName string
	// Ran and SkippedTasks count tasks that executed / were skipped.
	Ran, SkippedTasks int
}

// Speedup is the serial-equivalent time divided by the pool wall time.
func (s Stats) Speedup() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return s.TaskWall.Seconds() / s.Wall.Seconds()
}

// Clamp normalises a worker count: n <= 0 selects GOMAXPROCS, and the
// count never exceeds the number of tasks.
func Clamp(n, tasks int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > tasks {
		n = tasks
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Task is one unit of work: an independent job (typically one chromosome)
// with a name for reporting. Its Run receives worker-local state of type L,
// created once per worker by the pool's newLocal: a scratch arena, a
// connection, a reusable buffer — anything worth amortising across the
// tasks one worker processes. Tasks without such state use struct{}.
type Task[R, L any] struct {
	// Name identifies the task in results and stats.
	Name string
	// Run executes the task with the worker's local state. It should
	// honour ctx cancellation for early exit, but the scheduler never
	// interrupts a task that has started — cancellation only prevents
	// queued tasks from starting.
	Run func(ctx context.Context, local L) (R, error)
}

// Run executes tasks as one job on a Pool of Clamp(workers, len(tasks))
// workers; workers <= 0 selects GOMAXPROCS. Tasks start in input order;
// results come back indexed by input position. newLocal runs once in each
// worker goroutine before it takes tasks, and every task that worker
// executes receives the same L value; nil leaves L at its zero value. Each
// task runs under pol's deadline and retry schedule, a panic becomes its
// *par.PanicError, and every task runs whatever its siblings did. When ctx
// ends, the tasks not yet started are skipped with its cause. Run returns
// the full result slice and the lowest-index failure, or ctx's cause when
// no task failed.
func Run[R, L any](ctx context.Context, workers int, pol Policy, newLocal func(worker int) L, tasks []Task[R, L]) ([]Result[R], Stats, error) {
	results := make([]Result[R], len(tasks))
	if len(tasks) == 0 {
		return results, Stats{}, ctx.Err()
	}
	stats := Stats{Workers: Clamp(workers, len(tasks))}

	start := time.Now()
	p := NewPool[R, L](PoolConfig{Workers: stats.Workers, Policy: pol}, newLocal)
	job, _ := p.Submit(ctx, "", tasks) // a fresh pool is open
	for r := range job.Results() {
		results[r.Index] = r.Result
	}
	p.Close()
	stats.Wall = time.Since(start)

	var firstErr error
	for i := range results {
		r := &results[i]
		if r.Skipped {
			stats.SkippedTasks++
			continue
		}
		stats.Ran++
		stats.TaskWall += r.Wall
		if r.Wall > stats.Longest {
			stats.Longest = r.Wall
			stats.LongestName = r.Name
		}
		if r.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", r.Name, r.Err)
		}
	}
	if firstErr == nil {
		firstErr = context.Cause(ctx)
	}
	return results, stats, firstErr
}
