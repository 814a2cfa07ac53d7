// Package par is the one fork-join behind every host-side data-parallel
// pass: the sparse engine's likelihood and posterior shards, the dense
// engine's likelihood threads, the parallel sort, the aligner's read shards,
// the block writer's column encoders, and the simulated device's block
// ranges and Sync lanes. It owns the goroutines, the join and the panic
// transport, nothing else: how many shards a pass is worth is each caller's
// own, measured decision, and a caller with a serial fast path does not
// enter par at all.
package par

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is a panic converted to a value, with the stack of the
// goroutine that panicked. Do re-raises one for a panicking shard; the
// two-pass driver (pipeline) turns it into a quarantined window, the
// scheduler (sched) into a failed task.
type PanicError struct {
	// Value is the value passed to panic().
	Value any
	// Stack is the stack captured where the panic was recovered first.
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Recovered converts a recover() value into a *PanicError carrying the
// current stack, and returns nil for nil, so callers write
// `if pe := par.Recovered(recover()); pe != nil`. A value that already is
// a *PanicError passes through unchanged: a shard's panic keeps the shard's
// stack however many times it is re-raised and recovered on the way up.
func Recovered(v any) *PanicError {
	if v == nil {
		return nil
	}
	if pe, ok := v.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Group is the join state of a fork-join. The zero value is ready; a Group
// runs one Do at a time, must not be copied after first use, and may be
// kept and reused — also after a Do that panicked — so that a warm Do
// allocates nothing (the sparse engine keeps one in its Arena).
type Group struct {
	wg    sync.WaitGroup
	f     func(shard int)
	first atomic.Pointer[PanicError]
	// helpers[i] runs shard i+1 of the current Do. They are built once and
	// started as `go h()`: a call with no arguments is the one form of the
	// go statement that does not allocate a closure per spawn.
	helpers []func()
}

// Do runs f(0) … f(k-1) concurrently, shard 0 on the calling goroutine and
// each of the others on its own, so k parties may meet at a barrier. It
// returns only after every shard has returned — nothing a shard touches is
// still in use — and then re-raises the first panic, if any, on the caller
// as a *PanicError. k < 1 runs one shard.
func (g *Group) Do(k int, f func(shard int)) {
	g.f = f
	for len(g.helpers) < k-1 {
		shard := len(g.helpers) + 1
		g.helpers = append(g.helpers, func() {
			defer g.wg.Done()
			g.run(shard)
		})
	}
	if k > 1 {
		g.wg.Add(k - 1)
		for _, h := range g.helpers[:k-1] {
			go h()
		}
	}
	g.run(0)
	g.wg.Wait()
	g.f = nil
	if pe := g.first.Swap(nil); pe != nil {
		panic(pe)
	}
}

// run executes one shard, trapping a panic instead of unwinding a goroutine
// nothing recovers on. Only the first panic of a Do is kept.
func (g *Group) run(shard int) {
	defer func() {
		if pe := Recovered(recover()); pe != nil {
			g.first.CompareAndSwap(nil, pe)
		}
	}()
	g.f(shard)
}

// Range splits [0, n) into min(k, n) contiguous, near-equal ranges and runs
// f(shard, lo, hi) over them through Do; k < 1 means one range, n < 1 runs
// nothing.
func (g *Group) Range(n, k int, f func(shard, lo, hi int)) {
	if n < 1 {
		return
	}
	k = max(1, min(k, n))
	g.Do(k, func(s int) { f(s, s*n/k, (s+1)*n/k) })
}

// Do is Group.Do on a fresh Group.
func Do(k int, f func(shard int)) { new(Group).Do(k, f) }

// Range is Group.Range on a fresh Group.
func Range(n, k int, f func(shard, lo, hi int)) { new(Group).Range(n, k, f) }
