package resultcache

import (
	"fmt"
	"sync"
	"testing"
)

// keysLRU returns the cache's keys from most to least recently hit, via
// the internals (test-only).
func keysLRU[V any](c *Cache[V]) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for el := c.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[V]).key)
	}
	return out
}

func TestCacheGetPut(t *testing.T) {
	c := New[string](100)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a value")
	}
	if !c.Put("a", "va", 10) {
		t.Fatal("Put rejected a fitting value")
	}
	v, ok := c.Get("a")
	if !ok || v != "va" {
		t.Fatalf("Get(a) = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 || st.Bytes != 10 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestCacheEvictsLeastRecentlyHit pins the eviction order: the entry
// whose last *hit* is oldest goes first, not the oldest insertion.
func TestCacheEvictsLeastRecentlyHit(t *testing.T) {
	c := New[string](30)
	c.Put("a", "va", 10)
	c.Put("b", "vb", 10)
	c.Put("c", "vc", 10)
	// Touch a: b is now the least recently hit.
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	c.Put("d", "vd", 10) // must evict b
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction; want least-recently-hit out first")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s evicted; want only b out", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Bytes != 30 {
		t.Fatalf("stats %+v, want 1 eviction, 30 bytes", st)
	}
}

func TestCacheBudgetStrict(t *testing.T) {
	c := New[string](25)
	c.Put("a", "va", 10)
	c.Put("b", "vb", 10)
	// 10+10+10 > 25: storing c must evict until the budget holds.
	c.Put("c", "vc", 10)
	if st := c.Stats(); st.Bytes > 25 {
		t.Fatalf("occupancy %d exceeds budget 25", st.Bytes)
	}
	if got := keysLRU(c); len(got) != 2 {
		t.Fatalf("entries %v, want 2", got)
	}
}

func TestCacheRejectsOversizeAndDisabled(t *testing.T) {
	c := New[string](10)
	if c.Put("big", "x", 11) {
		t.Fatal("oversize value accepted")
	}
	if c.Put("neg", "x", -1) {
		t.Fatal("negative size accepted")
	}
	if st := c.Stats(); st.Rejected != 2 || st.Entries != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Oversize rejection must not flush existing entries.
	c.Put("a", "va", 5)
	c.Put("big", "x", 11)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("rejected Put disturbed existing entries")
	}

	off := New[string](0)
	if off.Put("a", "va", 0) {
		t.Fatal("disabled cache accepted a value")
	}
}

func TestCacheReplaceRecharges(t *testing.T) {
	c := New[string](30)
	c.Put("a", "v1", 10)
	c.Put("a", "v2", 25)
	v, ok := c.Get("a")
	if !ok || v != "v2" {
		t.Fatalf("Get(a) = %q, %v, want replaced value", v, ok)
	}
	if st := c.Stats(); st.Bytes != 25 || st.Entries != 1 {
		t.Fatalf("stats %+v, want re-charged 25 bytes", st)
	}
}

func TestFlightsSingleLeader(t *testing.T) {
	f := NewFlights[int]()
	lead, joined := f.Begin("k", 1)
	if joined || lead != 1 {
		t.Fatalf("first Begin = %d, joined %v", lead, joined)
	}
	lead, joined = f.Begin("k", 2)
	if !joined || lead != 1 {
		t.Fatalf("second Begin = %d, joined %v; want join of leader 1", lead, joined)
	}
	if f.Joins() != 1 {
		t.Fatalf("joins %d, want 1", f.Joins())
	}
	f.End("k")
	lead, joined = f.Begin("k", 3)
	if joined || lead != 3 {
		t.Fatalf("Begin after End = %d, joined %v; want fresh leader", lead, joined)
	}
}

// TestConcurrency hammers the cache and flights from many goroutines so
// the race detector can audit the locking.
func TestConcurrency(t *testing.T) {
	c := New[int](1 << 10)
	f := NewFlights[int]()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%17)
				c.Put(k, g, 64)
				c.Get(k)
				if _, joined := f.Begin(k, g); !joined {
					f.End(k)
				}
				c.Stats()
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Bytes > 1<<10 {
		t.Fatalf("budget violated under concurrency: %+v", st)
	}
}

// TestConcurrentEvictionChurn keeps the cache permanently over-subscribed
// (64 hot keys, budget for 4 entries) while goroutines Put and Get
// concurrently, so the race detector audits the eviction path itself and
// the stats invariants hold at every interleaving.
func TestConcurrentEvictionChurn(t *testing.T) {
	const budget = 256 // 4 entries of 64 bytes
	c := New[int](budget)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%64)
				c.Put(k, i, 64)
				c.Get(k)
				if i%29 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > budget {
		t.Fatalf("byte budget violated under churn: %+v", st)
	}
	if st.Entries > budget/64 {
		t.Fatalf("entry count exceeds what the budget admits: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions despite 16x over-subscription: %+v", st)
	}
	if st.Hits+st.Misses != 8*500 {
		t.Fatalf("hit/miss accounting drifted: %+v", st)
	}
}
