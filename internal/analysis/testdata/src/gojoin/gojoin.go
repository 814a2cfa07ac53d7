// Package gojoin exercises the goroutinejoin analyzer: every spawned
// goroutine must reach a WaitGroup join, a completion-channel receive,
// or a ctx-done select — transitively, through every statically
// resolvable call.
package gojoin

import (
	"context"
	"sync"
)

// --- negative: fan-out/fan-in where the Done hides one call away. The
// intraprocedural analyzers of PR 5 could not connect worker -> finish
// -> wg.Done to Close's Wait; the shared summary layer can.

type pool struct {
	wg    sync.WaitGroup
	tasks chan int
}

func (p *pool) Start(n int) {
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.worker() // ok: joins through finish's Done, Waited in Close
	}
}

func (p *pool) worker() {
	defer p.finish()
	for range p.tasks {
	}
}

func (p *pool) finish() { p.wg.Done() }

func (p *pool) Close() {
	close(p.tasks)
	p.wg.Wait()
}

// --- negative: completion channel — the goroutine closes what the
// spawner drains, so the range is the join.

func produceAll(items []int) []int {
	out := make(chan int)
	go func() {
		defer close(out)
		for _, v := range items {
			out <- v
		}
	}()
	var got []int
	for v := range out {
		got = append(got, v)
	}
	return got
}

// --- negative: cancellation-aware — the goroutine parks on ctx.Done,
// so the spawner can always release it.

func watch(ctx context.Context, events chan int) {
	go func() {
		for {
			select {
			case <-ctx.Done():
				return
			case e := <-events:
				_ = e
			}
		}
	}()
}

// --- negative: spawner-side Wait — the goroutine's Done is on a
// parameter the summary cannot match, but the spawner Waits after the
// go statement, which bounds it.

func fanOut(work []int) []int {
	var wg sync.WaitGroup
	results := make([]int, len(work))
	for i, w := range work {
		wg.Add(1)
		go compute(&wg, results, i, w) // ok: wg.Wait below the spawn
	}
	wg.Wait()
	return results
}

func compute(wg *sync.WaitGroup, out []int, i, w int) {
	defer wg.Done()
	out[i] = w * 2
}

// --- positive: nothing joins scan, nothing can cancel it.

type scanner struct{ hits []int }

func (s *scanner) leak() {
	go s.scan() // want "goroutine reaches no join or cancellation"
}

func (s *scanner) scan() {
	for i := 0; ; i++ {
		record(i)
	}
}

func record(int) {}

// --- positive, interprocedural: two hops down, drain signals a channel
// no function in the load ever receives from — the "completion" channel
// completes nothing, and only the transitive summary sees it.

type sink struct{ done chan struct{} }

func (s *sink) spawn() {
	go s.drain() // want "goroutine reaches no join or cancellation"
}

func (s *sink) drain() { s.signal() }

func (s *sink) signal() { s.done <- struct{}{} }

// --- negative: a dynamic spawn target whose spawner Waits after the
// spawn — the fork-join over stored helpers (internal/par): the helper's
// Done is invisible, the spawner's Wait is not.

type group struct {
	wg      sync.WaitGroup
	helpers []func()
}

func (g *group) do(k int) {
	for len(g.helpers) < k {
		g.helpers = append(g.helpers, func() { defer g.wg.Done() })
	}
	g.wg.Add(k)
	for _, h := range g.helpers[:k] {
		go h() // ok: g.wg.Wait below the spawn
	}
	g.wg.Wait()
}

// --- positive: a dynamic spawn target nobody waits for cannot be
// verified at all.

func spawnDynamic(fn func()) {
	go fn() // want "not statically resolvable"
}

// --- suppression: a reasoned ignore is the documented escape hatch.

func metrics() {
	//gsnplint:ignore goroutinejoin process-lifetime pump, dies with the process
	go pump()
}

func pump() {
	for {
		record(0)
	}
}
