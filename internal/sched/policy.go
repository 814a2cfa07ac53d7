package sched

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gsnp/internal/par"
)

// Policy is the pool's retry contract: how a task attempt is bounded
// (per-attempt deadlines) and retried (exponential backoff). The zero
// Policy runs one attempt with no deadline. Containment is not a setting:
// every attempt converts a panic into a *par.PanicError with the stack
// captured — the same type a shard of a parallel pass re-raises (par.Do)
// and the driver's window containment produces, so a panic that crossed
// those on its way up arrives here once, with the stack of the goroutine
// it happened on — and every task runs, whatever its siblings did.
//
// Determinism: no setting touches the scheduler's ordering guarantees — tasks
// dispatch in input order, results land at their input index, and the
// error returned by the run is the lowest-index failure.
type Policy struct {
	// Retries is the number of re-executions allowed after the first
	// attempt (0 = single attempt).
	Retries int
	// Backoff is the delay before the first retry; retry k waits
	// Backoff << (k-1). Zero retries immediately.
	Backoff time.Duration
	// Timeout is the per-attempt deadline, applied to the context each
	// attempt receives (0 = none). Deadlines are cooperative: a task that
	// ignores its context runs to completion, but the engines check their
	// context at every window boundary.
	Timeout time.Duration
	// RetryIf decides whether an error is worth retrying. Nil selects the
	// default: retry everything except recovered panics and parent-context
	// cancellation.
	RetryIf func(error) bool

	// sleep is a test hook; nil selects a real context-aware sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

// Delay reports the backoff before retry k (1-based) — exposed so tests
// and operators can predict a policy's schedule.
func (p *Policy) Delay(k int) time.Duration {
	if p.Backoff <= 0 {
		return 0
	}
	d := p.Backoff
	for i := 1; i < k && d < (1<<62); i++ {
		d <<= 1
	}
	return d
}

// shouldRetry applies RetryIf or the default rule.
func (p *Policy) shouldRetry(err error, panicked bool) bool {
	if p.RetryIf != nil {
		return p.RetryIf(err)
	}
	return !panicked && !errors.Is(err, context.Canceled)
}

// sleepCtx waits d or until ctx ends.
func (p *Policy) sleepCtx(ctx context.Context, d time.Duration) error {
	if p.sleep != nil {
		return p.sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runAttempt executes one attempt under the policy's deadline, with its
// panic contained.
func runAttempt[R, L any](ctx context.Context, p *Policy, t Task[R, L], local L) (v R, err error, panicked bool) {
	actx := ctx
	if p.Timeout > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, p.Timeout)
		defer cancel()
	}
	defer func() {
		if pe := par.Recovered(recover()); pe != nil {
			err, panicked = pe, true
		}
	}()
	v, err = t.Run(actx, local)
	// Distinguish the per-attempt deadline from ambient cancellation so
	// reports say what actually happened.
	if err != nil && p.Timeout > 0 && errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
		err = fmt.Errorf("task deadline %v exceeded: %w", p.Timeout, err)
	}
	return v, err, panicked
}

// execute runs one task to completion under the policy: attempts, backoff,
// and retry classification.
func execute[R, L any](ctx context.Context, p *Policy, t Task[R, L], local L) (v R, err error, attempts int, panicked bool) {
	for attempt := 0; ; attempt++ {
		attempts++
		v, err, panicked = runAttempt(ctx, p, t, local)
		if err == nil || attempt >= p.Retries || ctx.Err() != nil {
			return v, err, attempts, panicked
		}
		if !p.shouldRetry(err, panicked) {
			return v, err, attempts, panicked
		}
		if serr := p.sleepCtx(ctx, p.Delay(attempt+1)); serr != nil {
			return v, err, attempts, panicked
		}
	}
}
