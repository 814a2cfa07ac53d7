package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsnp/internal/par"
)

// dequeueLog records the pool's dispatch order via the OnDequeue hook.
type dequeueLog struct {
	mu    sync.Mutex
	order []string
}

func (l *dequeueLog) hook(job string, idx int) {
	l.mu.Lock()
	l.order = append(l.order, fmt.Sprintf("%s:%d", job, idx))
	l.mu.Unlock()
}

func (l *dequeueLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.order...)
}

// drain collects a job's results indexed by input position.
func drain[R any](t *testing.T, j *Job[R], n int) []Result[R] {
	t.Helper()
	out := make([]Result[R], n)
	got := 0
	timeout := time.After(30 * time.Second)
	for got < n {
		select {
		case r, ok := <-j.Results():
			if !ok {
				t.Fatalf("results closed after %d/%d", got, n)
			}
			if r.Index < 0 || r.Index >= n {
				t.Fatalf("result index %d out of range [0,%d)", r.Index, n)
			}
			out[r.Index] = r.Result
			got++
		case <-timeout:
			t.Fatalf("timed out draining results (%d/%d)", got, n)
		}
	}
	if _, ok := <-j.Results(); ok {
		t.Fatal("results channel not closed after the last task")
	}
	return out
}

// TestPoolFairnessSmallJobNotStarved is the starvation scenario from the
// service design: a 1-worker pool with a long job queued first must
// schedule a later small job's task within one round-robin rotation (here:
// after exactly one more long task), not after the long job drains. The
// OnDequeue hook makes the interleave deterministic: the long job's first
// task blocks until the small job is submitted, pinning the dispatch order
// to long:0, long:1, small:0, long:2, ... — the long job had already
// re-queued for its next turn when the small job arrived, and the small
// job is served at the very next rotation slot.
func TestPoolFairnessSmallJobNotStarved(t *testing.T) {
	var log dequeueLog
	firstStarted := make(chan struct{})
	release := make(chan struct{})

	p := NewPool[int, struct{}](PoolConfig{Workers: 1, OnDequeue: log.hook},
		func(int) struct{} { return struct{}{} })
	defer p.Close()

	const longN = 6
	long := make([]Task[int, struct{}], longN)
	for i := range long {
		i := i
		long[i] = Task[int, struct{}]{Name: fmt.Sprintf("long-%d", i),
			Run: func(ctx context.Context, _ struct{}) (int, error) {
				if i == 0 {
					close(firstStarted)
					<-release
				}
				return i, nil
			}}
	}
	lj, err := p.Submit(context.Background(), "long", long)
	if err != nil {
		t.Fatal(err)
	}

	// The single worker is now inside long:0; everything else the long job
	// owns is still queued. Submit the small job, then let long:0 finish.
	<-firstStarted
	sj, err := p.Submit(context.Background(), "small", []Task[int, struct{}]{{Name: "small-0",
		Run: func(ctx context.Context, _ struct{}) (int, error) { return 100, nil }}})
	if err != nil {
		t.Fatal(err)
	}
	close(release)

	drain(t, sj, 1)
	drain(t, lj, longN)

	order := log.snapshot()
	want := []string{"long:0", "long:1", "small:0", "long:2", "long:3", "long:4", "long:5"}
	if len(order) != len(want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v (first divergence at %d)", order, want, i)
		}
	}
}

// TestPoolRoundRobinAcrossThreeJobs: with one worker and three jobs of
// equal size all queued while the worker is blocked, dispatch must cycle
// j1, j2, j3, j1, j2, j3, ... rather than draining any job first.
func TestPoolRoundRobinAcrossThreeJobs(t *testing.T) {
	var log dequeueLog
	gateStarted := make(chan struct{})
	release := make(chan struct{})

	p := NewPool[int, struct{}](PoolConfig{Workers: 1, OnDequeue: log.hook},
		func(int) struct{} { return struct{}{} })
	defer p.Close()

	// A gate job holds the worker while the three real jobs queue up.
	gate, err := p.Submit(context.Background(), "gate", []Task[int, struct{}]{{Name: "gate",
		Run: func(ctx context.Context, _ struct{}) (int, error) {
			close(gateStarted)
			<-release
			return 0, nil
		}}})
	if err != nil {
		t.Fatal(err)
	}
	<-gateStarted

	mk := func(n int) []Task[int, struct{}] {
		ts := make([]Task[int, struct{}], n)
		for i := range ts {
			i := i
			ts[i] = Task[int, struct{}]{Name: fmt.Sprint(i),
				Run: func(ctx context.Context, _ struct{}) (int, error) { return i, nil }}
		}
		return ts
	}
	j1, _ := p.Submit(context.Background(), "j1", mk(2))
	j2, _ := p.Submit(context.Background(), "j2", mk(2))
	j3, _ := p.Submit(context.Background(), "j3", mk(2))
	close(release)

	drain(t, gate, 1)
	drain(t, j1, 2)
	drain(t, j2, 2)
	drain(t, j3, 2)

	order := log.snapshot()
	want := []string{"gate:0", "j1:0", "j2:0", "j3:0", "j1:1", "j2:1", "j3:1"}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("dispatch order %v, want %v", order, want)
	}
}

// TestPoolResultsCompleteAndIndexed: every task's result arrives exactly
// once with the right index and value at a parallel worker count.
func TestPoolResultsCompleteAndIndexed(t *testing.T) {
	p := NewPool[int, struct{}](PoolConfig{Workers: 4},
		func(int) struct{} { return struct{}{} })
	defer p.Close()

	const n = 64
	tasks := make([]Task[int, struct{}], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int, struct{}]{Name: fmt.Sprint(i),
			Run: func(ctx context.Context, _ struct{}) (int, error) { return i * i, nil }}
	}
	j, err := p.Submit(context.Background(), "job", tasks)
	if err != nil {
		t.Fatal(err)
	}
	res := drain(t, j, n)
	for i, r := range res {
		if r.Err != nil || r.Value != i*i {
			t.Fatalf("task %d: value %d err %v, want %d", i, r.Value, r.Err, i*i)
		}
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("Done not closed after all results")
	}
}

// TestPoolCancelSkipsQueuedOnly: cancelling a job resolves its queued
// tasks as skipped with the cancellation cause, lets the running task
// observe its context, and leaves a sibling job completely untouched.
func TestPoolCancelSkipsQueuedOnly(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	cause := errors.New("client went away")

	p := NewPool[int, struct{}](PoolConfig{Workers: 1},
		func(int) struct{} { return struct{}{} })
	defer p.Close()

	const n = 5
	tasks := make([]Task[int, struct{}], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int, struct{}]{Name: fmt.Sprint(i),
			Run: func(ctx context.Context, _ struct{}) (int, error) {
				if i == 0 {
					close(started)
					<-release
					return 0, ctx.Err() // report what cancellation did to us
				}
				return i, nil
			}}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	victim, err := p.Submit(ctx, "victim", tasks)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	bystander, err := p.Submit(context.Background(), "bystander", []Task[int, struct{}]{{Name: "b",
		Run: func(ctx context.Context, _ struct{}) (int, error) { return 42, nil }}})
	if err != nil {
		t.Fatal(err)
	}

	cancel(cause)
	close(release)

	vres := drain(t, victim, n)
	for i := 1; i < n; i++ {
		if !vres[i].Skipped {
			t.Errorf("task %d: not skipped after cancel", i)
		}
		if !errors.Is(vres[i].Err, cause) {
			t.Errorf("task %d: err %v, want cause %v", i, vres[i].Err, cause)
		}
	}
	if vres[0].Skipped {
		t.Error("running task reported skipped; it had already started")
	}
	if !errors.Is(vres[0].Err, context.Canceled) {
		t.Errorf("running task err %v, want context.Canceled", vres[0].Err)
	}

	bres := drain(t, bystander, 1)
	if bres[0].Err != nil || bres[0].Value != 42 {
		t.Fatalf("bystander perturbed by sibling cancel: %+v", bres[0])
	}
}

// TestPoolSubmitContextSkipsWhileWorkersBusy: a job whose submit context
// ends while every worker is busy on another job resolves all of its tasks
// as skipped with the context's cause — without waiting for a worker — and
// none of them is dispatched or started, then or later.
func TestPoolSubmitContextSkipsWhileWorkersBusy(t *testing.T) {
	const workers = 2
	var log dequeueLog
	var busy sync.WaitGroup
	busy.Add(workers)
	release := make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }

	p := NewPool[int, struct{}](PoolConfig{Workers: workers, OnDequeue: log.hook}, nil)
	defer p.Close()
	defer free() // a failed drain must not leave Close waiting on the blockers

	blockers := make([]Task[int, struct{}], workers)
	for i := range blockers {
		blockers[i] = Task[int, struct{}]{Name: fmt.Sprint(i),
			Run: func(ctx context.Context, _ struct{}) (int, error) {
				busy.Done()
				<-release
				return 0, nil
			}}
	}
	bj, err := p.Submit(context.Background(), "busy", blockers)
	if err != nil {
		t.Fatal(err)
	}
	busy.Wait()

	const n = 4
	var started atomic.Int32
	tasks := make([]Task[int, struct{}], n)
	for i := range tasks {
		tasks[i] = Task[int, struct{}]{Name: fmt.Sprint(i),
			Run: func(ctx context.Context, _ struct{}) (int, error) {
				started.Add(1)
				return 1, nil
			}}
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	cause := errors.New("client went away")
	victim, err := p.Submit(ctx, "victim", tasks)
	if err != nil {
		t.Fatal(err)
	}
	cancel(cause)

	// Every worker is still inside a blocker: the skips cannot come from one.
	res := drain(t, victim, n)
	<-victim.Done()
	for i, r := range res {
		if !r.Skipped || !errors.Is(r.Err, cause) || r.Worker != -1 || r.Attempts != 0 {
			t.Errorf("task %d: %+v, want skipped with the context's cause", i, r)
		}
	}

	free()
	drain(t, bj, workers)
	if n := started.Load(); n != 0 {
		t.Errorf("%d tasks of the cancelled job started", n)
	}
	for _, d := range log.snapshot() {
		if strings.HasPrefix(d, "victim:") {
			t.Errorf("cancelled job dispatched %s", d)
		}
	}
}

// TestPoolCloseDrainsQueuedTasks: Close is a graceful drain — tasks queued
// before Close still run to completion.
func TestPoolCloseDrainsQueuedTasks(t *testing.T) {
	p := NewPool[int, struct{}](PoolConfig{Workers: 2},
		func(int) struct{} { return struct{}{} })
	const n = 16
	tasks := make([]Task[int, struct{}], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int, struct{}]{Name: fmt.Sprint(i),
			Run: func(ctx context.Context, _ struct{}) (int, error) { return i, nil }}
	}
	j, err := p.Submit(context.Background(), "job", tasks)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if _, err := p.Submit(context.Background(), "late", tasks); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("submit after close: err %v, want ErrPoolClosed", err)
	}
	res := drain(t, j, n)
	for i, r := range res {
		if r.Err != nil || r.Skipped {
			t.Fatalf("task %d not completed across Close: %+v", i, r)
		}
	}
}

// TestPoolEmptyJob: zero tasks yields an immediately-finished job.
func TestPoolEmptyJob(t *testing.T) {
	p := NewPool[int, struct{}](PoolConfig{Workers: 1},
		func(int) struct{} { return struct{}{} })
	defer p.Close()
	j, err := p.Submit(context.Background(), "empty", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := <-j.Results(); ok {
		t.Fatal("empty job produced a result")
	}
	<-j.Done()
}

// TestPoolPolicyAppliesPerTask: the pool's Policy converts panics and
// retries transient failures exactly like Run, and one job's
// failures never cancel a sibling job.
func TestPoolPolicyAppliesPerTask(t *testing.T) {
	var attempts sync.Map
	p := NewPool[int, struct{}](PoolConfig{
		Workers: 2,
		Policy:  Policy{Retries: 2},
	}, func(int) struct{} { return struct{}{} })
	defer p.Close()

	tasks := []Task[int, struct{}]{
		{Name: "panics", Run: func(ctx context.Context, _ struct{}) (int, error) {
			panic("boom")
		}},
		{Name: "flaky", Run: func(ctx context.Context, _ struct{}) (int, error) {
			n, _ := attempts.LoadOrStore("flaky", new(int))
			c := n.(*int)
			*c++
			if *c < 3 {
				return 0, errors.New("transient")
			}
			return 7, nil
		}},
		{Name: "ok", Run: func(ctx context.Context, _ struct{}) (int, error) { return 1, nil }},
	}
	j, err := p.Submit(context.Background(), "mixed", tasks)
	if err != nil {
		t.Fatal(err)
	}
	res := drain(t, j, len(tasks))

	var pe *par.PanicError
	if !errors.As(res[0].Err, &pe) || !res[0].Panicked {
		t.Errorf("panicking task: err %v panicked %v, want PanicError", res[0].Err, res[0].Panicked)
	}
	if res[1].Err != nil || res[1].Value != 7 || res[1].Attempts != 3 {
		t.Errorf("flaky task: %+v, want success after 3 attempts", res[1])
	}
	if res[2].Err != nil || res[2].Value != 1 {
		t.Errorf("ok task perturbed by siblings: %+v", res[2])
	}
}
