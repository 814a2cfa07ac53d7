package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gsnp/internal/par"
)

// TestPolicyRetrySucceedsOnAttemptN: a task that fails its first attempts
// and succeeds on attempt N completes successfully, with the attempt count
// reported.
func TestPolicyRetrySucceedsOnAttemptN(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		var calls atomic.Int32
		tasks := []Task[int, struct{}]{{Name: "flaky", Run: func(ctx context.Context, _ struct{}) (int, error) {
			if int(calls.Add(1)) < n {
				return 0, errors.New("transient")
			}
			return 42, nil
		}}}
		pol := Policy{Retries: 4}
		results, _, err := Run(context.Background(), 1, pol, nil, tasks)
		if err != nil {
			t.Fatalf("n=%d: run failed: %v", n, err)
		}
		if results[0].Value != 42 || results[0].Attempts != n {
			t.Errorf("n=%d: got value %d after %d attempts, want 42 after %d",
				n, results[0].Value, results[0].Attempts, n)
		}
	}
}

// TestPolicyRetriesExhausted: a permanently failing task surfaces its error
// after exactly 1+Retries attempts.
func TestPolicyRetriesExhausted(t *testing.T) {
	var calls atomic.Int32
	boom := errors.New("boom")
	tasks := []Task[int, struct{}]{{Name: "broken", Run: func(ctx context.Context, _ struct{}) (int, error) {
		calls.Add(1)
		return 0, boom
	}}}
	_, _, err := Run(context.Background(), 1, Policy{Retries: 3}, nil, tasks)
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	if got := calls.Load(); got != 4 {
		t.Errorf("attempts = %d, want 4", got)
	}
}

// TestPolicyBackoffSchedule: delays grow exponentially from Backoff.
func TestPolicyBackoffSchedule(t *testing.T) {
	var slept []time.Duration
	pol := Policy{
		Retries: 4,
		Backoff: 10 * time.Millisecond,
		sleep: func(ctx context.Context, d time.Duration) error {
			slept = append(slept, d)
			return nil
		},
	}
	tasks := []Task[int, struct{}]{{Name: "t", Run: func(ctx context.Context, _ struct{}) (int, error) {
		return 0, errors.New("always")
	}}}
	if _, _, err := Run(context.Background(), 1, pol, nil, tasks); err == nil {
		t.Fatal("want error")
	}
	want := []time.Duration{10, 20, 40, 80} // ms: doubling
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want 4 delays", slept)
	}
	for i, d := range want {
		if slept[i] != d*time.Millisecond {
			t.Errorf("delay %d = %v, want %v", i+1, slept[i], d*time.Millisecond)
		}
	}
}

// TestPolicyDeadlineFiresMidTask: a task that honours its context is cut
// short by the per-attempt deadline and the error says so.
func TestPolicyDeadlineFiresMidTask(t *testing.T) {
	tasks := []Task[int, struct{}]{{Name: "wedged", Run: func(ctx context.Context, _ struct{}) (int, error) {
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(30 * time.Second):
			return 1, nil
		}
	}}}
	start := time.Now()
	_, _, err := Run(context.Background(), 1, Policy{Timeout: 20 * time.Millisecond}, nil, tasks)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	if !strings.Contains(err.Error(), "task deadline") {
		t.Errorf("error %q does not name the per-task deadline", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("deadline did not cut the task short (took %v)", wall)
	}
}

// TestPolicyDeadlineRetry: an attempt that times out is retried, and a
// faster second attempt succeeds.
func TestPolicyDeadlineRetry(t *testing.T) {
	var calls atomic.Int32
	tasks := []Task[int, struct{}]{{Name: "slow-once", Run: func(ctx context.Context, _ struct{}) (int, error) {
		if calls.Add(1) == 1 {
			<-ctx.Done() // first attempt stalls until the deadline
			return 0, ctx.Err()
		}
		return 7, nil
	}}}
	results, _, err := Run(context.Background(), 1,
		Policy{Timeout: 20 * time.Millisecond, Retries: 1}, nil, tasks)
	if err != nil || results[0].Value != 7 || results[0].Attempts != 2 {
		t.Fatalf("got value %d attempts %d err %v, want 7/2/nil",
			results[0].Value, results[0].Attempts, err)
	}
}

// TestPolicyPanicBecomesError: a panicking task is converted to a
// *par.PanicError with the stack captured, and sibling tasks are unaffected.
func TestPolicyPanicBecomesError(t *testing.T) {
	ran := make([]atomic.Bool, 3)
	tasks := make([]Task[int, struct{}], 3)
	for i := range tasks {
		i := i
		tasks[i] = Task[int, struct{}]{Name: fmt.Sprintf("t%d", i), Run: func(ctx context.Context, _ struct{}) (int, error) {
			ran[i].Store(true)
			if i == 1 {
				panic("kaboom")
			}
			return i, nil
		}}
	}
	pol := Policy{RecoverPanics: true, ContinueOnError: true}
	results, _, err := Run(context.Background(), 2, pol, nil, tasks)

	var pe *par.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("run error %v is not a PanicError", err)
	}
	if pe.Value != "kaboom" || len(pe.Stack) == 0 {
		t.Errorf("panic value %v / stack %d bytes; want kaboom with stack", pe.Value, len(pe.Stack))
	}
	if !results[1].Panicked || results[1].Err == nil {
		t.Error("panicking task not reported as panicked")
	}
	for _, i := range []int{0, 2} {
		if !ran[i].Load() || results[i].Err != nil || results[i].Value != i {
			t.Errorf("sibling %d affected by panic: ran=%v err=%v", i, ran[i].Load(), results[i].Err)
		}
	}
	// Panics are not retried by default.
	if results[1].Attempts != 1 {
		t.Errorf("panicked task attempted %d times, want 1", results[1].Attempts)
	}
}

// TestPolicyShardPanicKeepsItsStack: a task that panics with the
// *par.PanicError a parallel pass re-raised (a shard panic no window
// quarantine contained) fails with that same value — one "panic: …" with
// the shard's stack, not a wrapper carrying the dispatcher's.
func TestPolicyShardPanicKeepsItsStack(t *testing.T) {
	var shard *par.PanicError
	tasks := []Task[int, struct{}]{{Name: "chr1", Run: func(context.Context, struct{}) (int, error) {
		defer func() {
			shard = par.Recovered(recover())
			panic(shard)
		}()
		par.Do(2, func(s int) {
			if s == 1 {
				panic("index out of range")
			}
		})
		return 0, nil
	}}}
	results, _, err := Run(context.Background(), 1, Policy{RecoverPanics: true}, nil, tasks)
	var pe *par.PanicError
	if !errors.As(err, &pe) || pe != shard || results[0].Err != error(shard) || !results[0].Panicked {
		t.Fatalf("err = %v, task err = %v, want the shard's own *par.PanicError; panicked = %t", err, results[0].Err, results[0].Panicked)
	}
	if got := err.Error(); got != "chr1: panic: index out of range" {
		t.Errorf("error text %q, want the task name and one \"panic: …\"", got)
	}
	if stack := string(pe.Stack); !strings.Contains(stack, "par.(*Group).run") || strings.Contains(stack, "runAttempt") {
		t.Errorf("stack is not the panicking shard's:\n%s", stack)
	}
}

// TestPolicyContinueOnError: with ContinueOnError every task runs, nothing
// is skipped, and the returned error is still the lowest-index failure.
func TestPolicyContinueOnError(t *testing.T) {
	const n = 12
	tasks := make([]Task[int, struct{}], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int, struct{}]{Name: fmt.Sprintf("t%d", i), Run: func(ctx context.Context, _ struct{}) (int, error) {
			if i == 3 || i == 7 {
				return 0, fmt.Errorf("fail-%d", i)
			}
			return i, nil
		}}
	}
	results, stats, err := Run(context.Background(), 4, Policy{ContinueOnError: true}, nil, tasks)
	if err == nil || !strings.Contains(err.Error(), "fail-3") {
		t.Fatalf("run error %v, want the lowest-index failure fail-3", err)
	}
	if stats.SkippedTasks != 0 || stats.Ran != n {
		t.Fatalf("ran=%d skipped=%d, want all %d run", stats.Ran, stats.SkippedTasks, n)
	}
	for i, r := range results {
		if r.Skipped {
			t.Errorf("task %d skipped under ContinueOnError", i)
		}
	}
}

// TestPolicyZeroMatchesLegacy: the zero policy keeps first-error
// cancellation and single attempts.
func TestPolicyZeroMatchesLegacy(t *testing.T) {
	const n = 64
	block := make(chan struct{})
	tasks := make([]Task[int, struct{}], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[int, struct{}]{Name: fmt.Sprintf("t%d", i), Run: func(ctx context.Context, _ struct{}) (int, error) {
			if i == 0 {
				close(block)
				return 0, errors.New("first fails")
			}
			<-block
			return i, nil
		}}
	}
	_, stats, err := Run(context.Background(), 2, Policy{}, nil, tasks)
	if err == nil {
		t.Fatal("want error")
	}
	if stats.SkippedTasks == 0 {
		t.Error("zero policy should cancel queued tasks on first error")
	}
}

// TestPolicyRetryIf: a custom classifier stops retries for permanent
// errors.
func TestPolicyRetryIf(t *testing.T) {
	var calls atomic.Int32
	perm := errors.New("permanent")
	tasks := []Task[int, struct{}]{{Name: "t", Run: func(ctx context.Context, _ struct{}) (int, error) {
		calls.Add(1)
		return 0, perm
	}}}
	pol := Policy{Retries: 5, RetryIf: func(err error) bool { return !errors.Is(err, perm) }}
	if _, _, err := Run(context.Background(), 1, pol, nil, tasks); !errors.Is(err, perm) {
		t.Fatalf("want permanent, got %v", err)
	}
	if calls.Load() != 1 {
		t.Errorf("permanent error retried %d times", calls.Load()-1)
	}
}
