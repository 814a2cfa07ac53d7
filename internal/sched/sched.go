// Package sched provides the bounded worker-pool scheduler used to run
// independent per-chromosome jobs concurrently: the paper's production
// workload is 24 separate chromosome data sets (Section VI-A), and nothing
// in the pipeline couples one chromosome to another, so the host can
// process several at once while each engine run stays internally
// sequential.
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
	"sync"
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
	// Panicked marks a task whose final attempt panicked and was converted
	// to Err by Policy.RecoverPanics.
	Panicked bool
	// Skipped marks tasks that never started because an earlier task
	// failed (first-error cancellation) or the caller's context ended.
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

func (s Stats) String() string {
	return fmt.Sprintf("workers=%d wall=%v task-wall=%v speedup=%.2fx longest=%v(%s) ran=%d skipped=%d",
		s.Workers, s.Wall.Round(time.Millisecond), s.TaskWall.Round(time.Millisecond), s.Speedup(),
		s.Longest.Round(time.Millisecond), s.LongestName, s.Ran, s.SkippedTasks)
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
// created once per worker by Run's newLocal: a scratch arena, a connection,
// a reusable buffer — anything worth amortising across the tasks one worker
// processes. Tasks without such state use struct{}.
type Task[R, L any] struct {
	// Name identifies the task in results and stats.
	Name string
	// Run executes the task with the worker's local state. It should
	// honour ctx cancellation for early exit, but the scheduler never
	// interrupts a task that has started — cancellation only prevents
	// queued tasks from starting.
	Run func(ctx context.Context, local L) (R, error)
}

// Run executes tasks on a pool of bounded size. workers <= 0 selects
// GOMAXPROCS. Tasks start in input order; results come back indexed by
// input position. newLocal runs once in each worker goroutine before it
// takes tasks, and every task that worker executes receives the same L
// value; nil leaves L at its zero value. Each task runs under pol's
// deadline, panic containment and retry schedule. With the zero Policy the
// first failure (lowest task index among failures) cancels the pool: queued
// tasks are skipped, already-running tasks finish, and Run returns that
// error alongside the full result slice; Policy.ContinueOnError runs every
// task instead. The in-order dispatch, in-order results and
// lowest-index-error guarantees hold at every policy setting.
func Run[R, L any](ctx context.Context, workers int, pol Policy, newLocal func(worker int) L, tasks []Task[R, L]) ([]Result[R], Stats, error) {
	results := make([]Result[R], len(tasks))
	if len(tasks) == 0 {
		return results, Stats{}, ctx.Err()
	}
	stats := Stats{Workers: Clamp(workers, len(tasks))}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	next := make(chan int) // task indexes, dispatched in order
	go func() {
		defer close(next)
		for i := range tasks {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	started := make([]bool, len(tasks))
	for w := 0; w < stats.Workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			var local L
			if newLocal != nil {
				local = newLocal(worker)
			}
			for i := range next {
				if ctx.Err() != nil {
					// Cancelled after dispatch: drain without running so
					// the task is reported as skipped.
					continue
				}
				mu.Lock()
				started[i] = true
				mu.Unlock()
				t0 := time.Now()
				v, err, attempts, panicked := execute(ctx, &pol, tasks[i], local)
				results[i] = Result[R]{
					Name:     tasks[i].Name,
					Value:    v,
					Err:      err,
					Wall:     time.Since(t0),
					Worker:   worker,
					Attempts: attempts,
					Panicked: panicked,
				}
				if err != nil && !pol.ContinueOnError {
					cancel() // first-error cancellation
				}
			}
		}(w)
	}
	wg.Wait()
	stats.Wall = time.Since(start)

	// Mark tasks the cancellation kept from starting.
	cause := context.Cause(ctx)
	for i := range tasks {
		if started[i] {
			continue
		}
		results[i] = Result[R]{Name: tasks[i].Name, Err: cause, Worker: -1, Skipped: true}
	}

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
	if firstErr == nil && cause != nil {
		firstErr = cause
	}
	return results, stats, firstErr
}
