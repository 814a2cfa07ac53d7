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

// TestRunPolicyResultOrderingMixedFailures makes the scheduler's in-order
// result guarantee explicit under the worst mix the byte-identity tests
// only exercise implicitly: successes, recovered panics and per-task
// deadline hits interleaved across a parallel pool.
// Every result must land at its input index with its own task's name and
// value, the run error must be the lowest-index failure, and nothing may
// be skipped.
func TestRunPolicyResultOrderingMixedFailures(t *testing.T) {
	const n = 24
	kind := func(i int) string {
		switch i % 4 {
		case 1:
			return "panic"
		case 3:
			return "timeout"
		default:
			return "ok"
		}
	}
	tasks := make([]Task[string, struct{}], n)
	for i := range tasks {
		i := i
		tasks[i] = Task[string, struct{}]{
			Name: fmt.Sprintf("task-%02d", i),
			Run: func(ctx context.Context, _ struct{}) (string, error) {
				switch kind(i) {
				case "panic":
					panic(fmt.Sprintf("boom-%d", i))
				case "timeout":
					<-ctx.Done() // cooperative deadline, like the engines
					return "", ctx.Err()
				default:
					return fmt.Sprintf("value-%02d", i), nil
				}
			},
		}
	}
	pol := Policy{Timeout: 20 * time.Millisecond}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			results, stats, err := Run(context.Background(), workers, pol, nil, tasks)
			if len(results) != n {
				t.Fatalf("got %d results, want %d", len(results), n)
			}
			for i, r := range results {
				if r.Name != tasks[i].Name {
					t.Fatalf("result %d holds %q: results out of input order", i, r.Name)
				}
				if r.Skipped {
					t.Errorf("%s skipped after a sibling failed", r.Name)
				}
				switch kind(i) {
				case "panic":
					var pe *par.PanicError
					if !errors.As(r.Err, &pe) || !r.Panicked {
						t.Errorf("%s: err %v panicked %v, want recovered panic", r.Name, r.Err, r.Panicked)
					} else if want := fmt.Sprintf("boom-%d", i); fmt.Sprint(pe.Value) != want {
						t.Errorf("%s carries panic %v, want %s: cross-task result mixup", r.Name, pe.Value, want)
					}
				case "timeout":
					if !errors.Is(r.Err, context.DeadlineExceeded) {
						t.Errorf("%s: err %v, want deadline exceeded", r.Name, r.Err)
					}
					if !strings.Contains(fmt.Sprint(r.Err), "task deadline") {
						t.Errorf("%s: deadline error not annotated: %v", r.Name, r.Err)
					}
				default:
					if r.Err != nil || r.Value != fmt.Sprintf("value-%02d", i) {
						t.Errorf("%s: value %q err %v, want value-%02d", r.Name, r.Value, r.Err, i)
					}
				}
			}
			// The run error is the lowest-index failure: task-01 (panic).
			if err == nil || !strings.Contains(err.Error(), "task-01") {
				t.Errorf("run error %v, want the lowest-index failure task-01", err)
			}
			if stats.Ran != n || stats.SkippedTasks != 0 {
				t.Errorf("stats ran=%d skipped=%d, want %d/0", stats.Ran, stats.SkippedTasks, n)
			}
		})
	}
}

// TestRunPolicyLowestIndexErrorBeatsEarlierCompletion pins the error
// selection rule when a HIGHER-index task fails FIRST in wall-clock time:
// every task runs, and the reported error must still be the lowest-index
// failure, no matter the completion order.
func TestRunPolicyLowestIndexErrorBeatsEarlierCompletion(t *testing.T) {
	lowStarted := make(chan struct{})
	highFailed := make(chan struct{})
	var highDone atomic.Bool
	tasks := []Task[int, struct{}]{
		{Name: "low-fail", Run: func(ctx context.Context, _ struct{}) (int, error) {
			close(lowStarted)
			<-highFailed // guarantee the high-index failure completes first
			if !highDone.Load() {
				return 0, errors.New("ordering broken: high failure not recorded yet")
			}
			return 0, errors.New("low error")
		}},
		{Name: "ok", Run: func(ctx context.Context, _ struct{}) (int, error) { return 1, nil }},
		{Name: "high-fail", Run: func(ctx context.Context, _ struct{}) (int, error) {
			<-lowStarted
			highDone.Store(true)
			defer close(highFailed)
			return 0, errors.New("high error")
		}},
	}
	_, _, err := Run(context.Background(), 3, Policy{}, nil, tasks)
	if err == nil || !strings.Contains(err.Error(), "low error") {
		t.Fatalf("run error %v, want the lowest-index failure (low error)", err)
	}
}
