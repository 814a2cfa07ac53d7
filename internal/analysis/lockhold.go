package analysis

import (
	"go/token"
	"strings"
)

// LockHold flags a sync.Mutex or RWMutex held across a potentially
// blocking operation: a channel send or receive, a select without
// default, a WaitGroup.Wait, file or network I/O — directly in the
// critical section, or inside any function the critical section calls
// (the interprocedural case PR 5's analyzers could not see: the lock is
// taken in one function and the blocking call hides two frames down).
//
// Why this matters here: gsnpd's scheduler lock serialises every
// worker's dequeue and every Submit; its job locks serialise stream
// publication against NDJSON followers. A blocking call under either
// turns one slow disk write or one full channel into a stall of every
// worker and every HTTP handler — the graceful-drain and fairness
// contracts both assume critical sections terminate without waiting on
// anything external.
//
// The critical section is approximated linearly: a mutex is held from a
// Lock/RLock call to the next Unlock/RUnlock of the same mutex in source
// order, or to the end of the function for `defer mu.Unlock()`. Blocking
// ops inside defer bodies are excluded (they run at return), and
// sync.Cond.Wait is exempt — it releases the mutex while parked.
var LockHold = &Analyzer{
	Name: "lockhold",
	Doc: "flag mutexes held across blocking operations (channel ops, " +
		"Wait, file/network I/O), including calls that block indirectly",
	Run: runLockHold,
}

func runLockHold(pass *Pass) {
	for _, info := range pass.Funcs {
		checkLockHold(pass, info)
	}
}

// heldInterval is one [Lock, Unlock) span of one mutex.
type heldInterval struct {
	key        string
	start, end token.Pos
}

func checkLockHold(pass *Pass, info *FuncInfo) {
	intervals := lockIntervals(info)
	if len(intervals) == 0 {
		return
	}
	// Every potentially blocking point: the function's direct blocking ops
	// plus the call sites whose callee transitively blocks.
	points := append([]BlockOp(nil), info.Blocks...)
	for _, c := range info.Calls {
		if op := pass.IP.callBlock(c); op != nil {
			points = append(points, *op)
		}
	}

	// Report the first blocking point inside each held interval; one
	// report per interval keeps a lock held over a whole blocking region
	// from producing a finding per statement.
	for _, iv := range intervals {
		var first *BlockOp
		for i := range points {
			p := &points[i]
			// Unlocking or locking other mutexes is not in scope; channel
			// ops on the same line as the Unlock are (rare, fine).
			if p.Pos > iv.start && p.Pos < iv.end && (first == nil || p.Pos < first.Pos) {
				first = p
			}
		}
		if first != nil {
			pass.Reportf(first.Pos,
				"%s while holding %s: a blocked critical section stalls every contender of the lock",
				first.Desc, displayKey(iv.key))
		}
	}
}

// lockIntervals derives the held spans from the function's lock events
// in source order. A deferred Unlock extends the span to the end of the
// function body.
func lockIntervals(info *FuncInfo) []heldInterval {
	end := info.Decl.End()
	var out []heldInterval
	open := map[string]token.Pos{} // key -> Lock pos
	for _, e := range info.Locks {
		if !e.Unlock {
			if _, ok := open[e.Key]; !ok {
				open[e.Key] = e.Pos
			}
			continue
		}
		start, ok := open[e.Key]
		if !ok {
			continue // unlock of a lock taken elsewhere (helper-release shape)
		}
		delete(open, e.Key)
		if e.Deferred {
			out = append(out, heldInterval{key: e.Key, start: start, end: end})
		} else {
			out = append(out, heldInterval{key: e.Key, start: start, end: e.Pos})
		}
	}
	// Locks never released in this function: held to the end (the caller
	// may release them, but everything here runs under the lock).
	for k, start := range open {
		out = append(out, heldInterval{key: k, start: start, end: end})
	}
	return out
}

// displayKey renders a mutex identity for diagnostics: local objects
// print as "a local mutex", field chains keep their readable tail.
func displayKey(k string) string {
	if strings.HasPrefix(k, "local@") {
		return "a locally-declared mutex"
	}
	if i := strings.LastIndex(k, "/"); i >= 0 {
		k = k[i+1:]
	}
	return "mutex " + k
}
