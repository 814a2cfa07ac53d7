package analysis

import (
	"go/ast"
)

// GoroutineJoin enforces the lifecycle half of the determinism contract:
// every goroutine the system spawns must be joinable or cancellable.
// The byte-identity guarantee ("same output at any worker count") is a
// statement about *completed* work — a goroutine nobody waits for can
// still be writing into a buffer, an arena, or a stream after the
// spawner has moved on, and a goroutine nobody can cancel outlives
// graceful drain and leaks across jobs in the long-lived gsnpd process.
//
// A `go` statement passes when the spawned body — transitively, through
// every statically resolvable call — reaches one of:
//
//   - a WaitGroup join: the goroutine calls Done() on a WaitGroup that
//     some function in the load Waits on (the classic fan-out/fan-in,
//     and the pool shape where Close holds the Wait);
//   - a completion channel: the goroutine sends on or closes a channel
//     that some function in the load receives from or ranges over (the
//     prefetcher/collector shape: `defer close(p.ch)` joined by the
//     consumer's `<-p.ch`);
//   - cancellation awareness: the goroutine receives from a Done()
//     channel (ctx-done select), so the spawner can always release it.
//
// or when the spawner itself Waits on a WaitGroup after the statement,
// which bounds a goroutine whose own side cannot be read — a Done behind a
// dynamic call, or a spawn target that is a stored function value.
//
// Anything else is a leak the intraprocedural analyzers of PR 5 could
// not see: the join evidence usually lives two calls away.
var GoroutineJoin = &Analyzer{
	Name: "goroutinejoin",
	Doc: "flag go statements whose goroutine reaches no WaitGroup.Wait, " +
		"completion-channel receive, or ctx-done select, transitively " +
		"through called functions",
	Run: runGoroutineJoin,
}

func runGoroutineJoin(pass *Pass) {
	ip := pass.IP
	if ip == nil {
		return
	}
	for _, info := range ip.infos {
		if info.Pkg.Types != pass.Pkg {
			continue
		}
		for _, g := range info.GoStmts {
			checkGoJoin(pass, info, g)
		}
	}
}

func checkGoJoin(pass *Pass, spawner *FuncInfo, g *ast.GoStmt) {
	ip := pass.IP
	// A dynamic spawn target (function value, interface method) has no
	// summary: body is nil and contributes no keys.
	body := ip.GoroutineInfo(pass.TypesInfo, g)
	keys := ip.transitiveKeys(body)

	// WaitGroup join: the goroutine Done()s a group somebody Waits on.
	for k := range keys.done {
		if ip.WaitedSomewhere(k) {
			return
		}
	}
	// Completion channel: the goroutine sends on / closes a channel
	// somebody receives from.
	for k := range keys.send {
		if ip.ReceivedSomewhere(k) {
			return
		}
	}
	// Cancellation-aware: the goroutine parks on a ctx-done receive.
	if keys.ctxDone {
		return
	}
	// Spawner-side fallback: wg.Add(1); go fn(&wg) with the Wait in the
	// spawner after the statement — the goroutine side may hide its Done
	// behind a dynamic call, or be one (`go h()` over the stored helpers of
	// par.Group.Do, the one spawn behind every data-parallel pass), but the
	// spawner cannot get past its Wait without it.
	for _, k := range spawner.WaitKeys {
		if containsKeyAfter(spawner, k, g) {
			return
		}
	}
	if body == nil {
		// The summary layer cannot see the body and the spawner does not
		// wait. Flag it — a join that cannot be verified is
		// indistinguishable from one that does not exist, and a suppression
		// with the reason is the documented escape.
		pass.Reportf(g.Pos(),
			"goroutine body is not statically resolvable; cannot verify it is joined or cancellable")
		return
	}

	pass.Reportf(g.Pos(),
		"goroutine reaches no join or cancellation (no WaitGroup.Wait, no completion-channel receive, no ctx-done select): it can outlive the work that spawned it")
}

// containsKeyAfter reports whether the spawner Waits on WaitGroup key k
// at a position after the go statement.
func containsKeyAfter(spawner *FuncInfo, k string, g *ast.GoStmt) bool {
	for _, b := range spawner.Blocks {
		if b.Pos > g.Pos() && b.Desc == "sync.WaitGroup.Wait on "+k {
			return true
		}
	}
	return false
}
