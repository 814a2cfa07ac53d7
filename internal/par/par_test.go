package par

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// catch runs f and returns what it panicked with.
func catch(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestDo: every shard runs exactly once, on a fresh Group and on a kept
// one; a panic in shard 0 and a panic in a helper are each re-raised on the
// caller, as a *PanicError with the panicking shard's stack, only after
// every shard has returned; and the Group that carried the panic runs the
// next Do clean.
func TestDo(t *testing.T) {
	var kept Group
	for _, tc := range []struct {
		name     string
		k, panic int // panic: the shard that panics, -1 for none
	}{
		{"k=0", 0, -1}, {"k=1", 1, -1}, {"k=2", 2, -1}, {"k=7", 7, -1}, {"k=3 again", 3, -1},
		{"shard 0 panics", 5, 0}, {"helper panics", 5, 3}, {"only shard panics", 1, 0},
		{"after the panics", 6, -1},
	} {
		for _, g := range []*Group{new(Group), &kept} {
			want := max(tc.k, 1)
			ran := make([]atomic.Int32, want)
			var returned atomic.Int32
			v := catch(func() {
				g.Do(tc.k, func(s int) {
					defer returned.Add(1)
					ran[s].Add(1)
					if s == tc.panic {
						panic("boom in shard")
					}
					// Outlast the panicking shard: Do must still wait.
					if tc.panic >= 0 {
						time.Sleep(2 * time.Millisecond)
					}
				})
			})
			for s := range ran {
				if n := ran[s].Load(); n != 1 {
					t.Errorf("%s: shard %d of %d ran %d times", tc.name, s, want, n)
				}
			}
			if n := int(returned.Load()); n != want {
				t.Errorf("%s: Do came back with %d of %d shards returned", tc.name, n, want)
			}
			if tc.panic < 0 {
				if v != nil {
					t.Errorf("%s: Do panicked with %v", tc.name, v)
				}
				continue
			}
			pe, ok := v.(*PanicError)
			if !ok || pe.Value != "boom in shard" || pe.Error() != "panic: boom in shard" {
				t.Fatalf("%s: re-raised %T %v, want a *PanicError of the shard's value", tc.name, v, v)
			}
			if !strings.Contains(string(pe.Stack), "TestDo.func") {
				t.Errorf("%s: stack is not the panicking shard's:\n%s", tc.name, pe.Stack)
			}
		}
	}
}

// TestDoFirstPanicWins: when every shard panics exactly one panic comes
// out, and the slot is empty afterwards.
func TestDoFirstPanicWins(t *testing.T) {
	var g Group
	v := catch(func() { g.Do(4, func(s int) { panic(s) }) })
	if pe, ok := v.(*PanicError); !ok || len(pe.Stack) == 0 {
		t.Fatalf("re-raised %T %v, want one *PanicError with a stack", v, v)
	}
	if v := catch(func() { g.Do(4, func(int) {}) }); v != nil {
		t.Errorf("a stale panic came out of the next Do: %v", v)
	}
}

// TestDoShardsRunConcurrently: k shards meet at a k-party barrier, which
// only works if none waits for another to return first. gpu.runLanesSync,
// the simulator's accounting oracle, runs its lanes this way.
func TestDoShardsRunConcurrently(t *testing.T) {
	const k = 9
	var (
		mu      sync.Mutex
		cond    = sync.NewCond(&mu)
		arrived int
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		Do(k, func(int) {
			mu.Lock()
			defer mu.Unlock()
			if arrived++; arrived == k {
				cond.Broadcast()
			}
			for arrived < k {
				cond.Wait()
			}
		})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("%d of %d shards reached the barrier: Do does not run its shards concurrently", arrived, k)
	}
}

// TestRange: the ranges are contiguous, in shard order, and cover [0, n)
// exactly once, with at most n of them — for n = 0, n < k, k <= 0 and the
// ordinary cases.
func TestRange(t *testing.T) {
	for _, tc := range []struct{ n, k, shards int }{
		{0, 4, 0}, {-3, 4, 0}, {1, 4, 1}, {3, 8, 3}, {10, 0, 1}, {10, -2, 1}, {10, 1, 1},
		{10, 3, 3}, {10, 10, 10}, {1000, 7, 7}, {4096, 2, 2},
	} {
		var mu sync.Mutex
		cover := make([]int, max(tc.n, 0))
		bounds := map[int][2]int{}
		Range(tc.n, tc.k, func(s, lo, hi int) {
			mu.Lock()
			defer mu.Unlock()
			bounds[s] = [2]int{lo, hi}
			for i := lo; i < hi; i++ {
				cover[i]++
			}
		})
		if len(bounds) != tc.shards {
			t.Errorf("Range(%d, %d): %d shards ran, want %d", tc.n, tc.k, len(bounds), tc.shards)
		}
		for i, c := range cover {
			if c != 1 {
				t.Errorf("Range(%d, %d): index %d covered %d times", tc.n, tc.k, i, c)
			}
		}
		for s, next := 0, 0; s < len(bounds); s++ {
			b := bounds[s]
			if b[0] != next || b[1] <= b[0] {
				t.Errorf("Range(%d, %d): shard %d got [%d,%d), want a non-empty range starting at %d", tc.n, tc.k, s, b[0], b[1], next)
			}
			next = b[1]
		}
	}
}

// TestRecovered pins the pass-through that keeps a shard's stack on its way
// up through the window quarantine and the scheduler.
func TestRecovered(t *testing.T) {
	if Recovered(nil) != nil {
		t.Error("Recovered(nil) != nil")
	}
	pe := Recovered("x")
	if pe == nil || pe.Value != "x" || len(pe.Stack) == 0 {
		t.Fatalf("Recovered(\"x\") = %+v", pe)
	}
	if Recovered(pe) != pe {
		t.Error("a *PanicError did not pass through unchanged")
	}
}

// TestWarmGroupDoesNotAllocate is the reason Group is exported: kept by the
// caller, the fork-join itself is allocation-free (the sparse engine's
// window gate counts on it; the closure handed to Do is the caller's).
func TestWarmGroupDoesNotAllocate(t *testing.T) {
	var g Group
	var sum atomic.Int64
	f := func(s int) { sum.Add(int64(s)) }
	g.Do(4, f)
	if n := testing.AllocsPerRun(100, func() { g.Do(4, f) }); n != 0 {
		t.Errorf("warm Group.Do(4) allocates %.1f times", n)
	}
}
