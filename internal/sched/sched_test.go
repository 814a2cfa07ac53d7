package sched

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunOrderedResults verifies results land at their input index no
// matter which worker finishes first.
func TestRunOrderedResults(t *testing.T) {
	const n = 50
	tasks := make([]Task[int, struct{}], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int, struct{}]{
			Name: fmt.Sprintf("t%d", i),
			Run: func(context.Context, struct{}) (int, error) {
				if i%7 == 0 {
					time.Sleep(time.Millisecond) // scramble completion order
				}
				return i * i, nil
			},
		}
	}
	res, stats, err := Run(context.Background(), 8, Policy{}, nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Workers != 8 || stats.Ran != n || stats.SkippedTasks != 0 {
		t.Errorf("stats = %+v", stats)
	}
	for i, r := range res {
		if r.Value != i*i || r.Err != nil || r.Skipped {
			t.Fatalf("result %d = %+v", i, r)
		}
		if r.Name != fmt.Sprintf("t%d", i) {
			t.Fatalf("result %d name = %q", i, r.Name)
		}
	}
}

// TestRunBoundedWorkers checks concurrency never exceeds the requested
// worker count.
func TestRunBoundedWorkers(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	tasks := make([]Task[struct{}, struct{}], 24)
	for i := range tasks {
		tasks[i] = Task[struct{}, struct{}]{
			Name: "t",
			Run: func(context.Context, struct{}) (struct{}, error) {
				c := cur.Add(1)
				for {
					p := peak.Load()
					if c <= p || peak.CompareAndSwap(p, c) {
						break
					}
				}
				time.Sleep(time.Millisecond)
				cur.Add(-1)
				return struct{}{}, nil
			},
		}
	}
	if _, _, err := Run(context.Background(), workers, Policy{}, nil, tasks); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, want <= %d", p, workers)
	}
}

// TestRunLowestIndexError ensures the returned error is deterministic when
// several tasks fail: the lowest input index wins, not the first to finish.
func TestRunLowestIndexError(t *testing.T) {
	// All four tasks start before any fails (the gate guarantees it), and
	// task 0 fails chronologically last — the reported error must still be
	// task 0's, by index.
	var gate sync.WaitGroup
	gate.Add(4)
	tasks := make([]Task[int, struct{}], 4)
	for i := range tasks {
		i := i
		tasks[i] = Task[int, struct{}]{
			Name: fmt.Sprintf("t%d", i),
			Run: func(context.Context, struct{}) (int, error) {
				gate.Done()
				gate.Wait()
				if i == 0 {
					time.Sleep(5 * time.Millisecond) // fails last in time
				}
				return 0, fmt.Errorf("err%d", i)
			},
		}
	}
	_, _, err := Run(context.Background(), 4, Policy{}, nil, tasks)
	if err == nil || err.Error() != "t0: err0" {
		t.Fatalf("err = %v, want t0: err0", err)
	}
}

// TestRunContextCancellation: a cancelled parent context skips everything
// not yet started.
func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tasks := []Task[int, struct{}]{{Name: "t0", Run: func(context.Context, struct{}) (int, error) { return 1, nil }}}
	res, _, err := Run(ctx, 1, Policy{}, nil, tasks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if !res[0].Skipped {
		t.Errorf("task ran under a cancelled context: %+v", res[0])
	}
}

func TestRunEmptyAndClamp(t *testing.T) {
	res, stats, err := Run[int, struct{}](context.Background(), 4, Policy{}, nil, nil)
	if err != nil || len(res) != 0 {
		t.Fatalf("empty run: %v %v", res, err)
	}
	if stats.Workers != 0 || stats.Wall != 0 {
		t.Errorf("empty-run stats = %+v", stats)
	}
	if Clamp(0, 100) < 1 {
		t.Error("Clamp(0, _) must select at least one worker")
	}
	if Clamp(16, 3) != 3 {
		t.Error("Clamp must bound workers by task count")
	}
	if Clamp(2, 100) != 2 {
		t.Error("Clamp altered an in-range count")
	}
}

func TestStatsSpeedup(t *testing.T) {
	tasks := make([]Task[struct{}, struct{}], 8)
	for i := range tasks {
		tasks[i] = Task[struct{}, struct{}]{Name: "t", Run: func(context.Context, struct{}) (struct{}, error) {
			time.Sleep(2 * time.Millisecond)
			return struct{}{}, nil
		}}
	}
	_, st, err := Run(context.Background(), 4, Policy{}, nil, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if st.TaskWall < st.Longest || st.Longest <= 0 {
		t.Errorf("stats inconsistent: %+v", st)
	}
	if st.Speedup() <= 0 {
		t.Errorf("speedup = %v", st.Speedup())
	}
}

// TestRunLocalWorkerState verifies the per-worker local state contract:
// newLocal runs exactly once per worker, and every task a worker executes
// receives that worker's value.
func TestRunLocalWorkerState(t *testing.T) {
	type local struct {
		worker int
		uses   int
	}
	var mu sync.Mutex
	locals := make(map[*local]bool)
	newLocal := func(worker int) *local {
		l := &local{worker: worker}
		mu.Lock()
		locals[l] = true
		mu.Unlock()
		return l
	}
	const n = 12
	tasks := make([]Task[int, *local], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int, *local]{
			Name: fmt.Sprintf("t%d", i),
			Run: func(_ context.Context, l *local) (int, error) {
				l.uses++ // worker-confined: no lock needed
				return i, nil
			},
		}
	}
	results, stats, err := Run(context.Background(), 3, Policy{}, newLocal, tasks)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Value != i {
			t.Errorf("result %d = %d, want %d", i, r.Value, i)
		}
	}
	if stats.Workers != 3 {
		t.Errorf("workers = %d, want 3", stats.Workers)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(locals) != 3 {
		t.Fatalf("newLocal ran %d times, want once per worker (3)", len(locals))
	}
	total := 0
	for l := range locals {
		total += l.uses
	}
	if total != n {
		t.Errorf("tasks seen by locals = %d, want %d", total, n)
	}
}
