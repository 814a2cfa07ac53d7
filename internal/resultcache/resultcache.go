// Package resultcache is the content-addressed result store behind
// gsnpd's repeat-job short-circuit. GSNP's outputs are byte-identical by
// construction — the determinism analyzer and the byte-identity test
// suite enforce it — so a job keyed by the sha256 of every input file
// plus the output-shaping configuration fingerprint can be served
// *exactly* from a prior run's recorded bytes: caching is not an
// approximation here, it is replay.
//
// The package provides two pieces the service composes:
//
//   - Cache[V]: a strictly byte-budgeted LRU store (least recently *hit*
//     entry evicted first) with hit/miss/eviction accounting.
//   - Flights[T]: a single-flight registry so concurrently submitted
//     identical jobs share one execution — the second submission joins
//     the first job's stream instead of spawning duplicate pool work.
//
// Both are safe for concurrent use.
package resultcache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	// Hits counts Get calls that found a live entry.
	Hits uint64 `json:"hits"`
	// Misses counts Get calls that found nothing.
	Misses uint64 `json:"misses"`
	// Puts counts successful stores (including overwrites).
	Puts uint64 `json:"puts"`
	// Evictions counts entries removed to make room under the byte budget.
	Evictions uint64 `json:"evictions"`
	// Rejected counts Put calls refused because the value alone exceeds
	// the byte budget.
	Rejected uint64 `json:"rejected"`
	// Entries is the current number of cached values.
	Entries int `json:"entries"`
	// Bytes is the current occupancy; MaxBytes the configured budget.
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// entry is one cached value on the LRU list.
type entry[V any] struct {
	key  string
	val  V
	size int64
}

// Cache is a size-bounded LRU map from content-hash keys to values.
// Values are treated as immutable once stored: callers must not mutate a
// value after Put or after receiving it from Get.
type Cache[V any] struct {
	mu  sync.Mutex
	max int64
	// ll orders entries by recency of last hit, front = most recent;
	// every element value is *entry[V].
	ll    *list.List
	index map[string]*list.Element
	bytes int64

	hits, misses, puts, evictions, rejected uint64
}

// New builds a cache holding at most maxBytes of values (as accounted by
// the sizes passed to Put). maxBytes <= 0 yields a cache that rejects
// every Put — a disabled cache that still answers Get with a miss.
func New[V any](maxBytes int64) *Cache[V] {
	return &Cache[V]{max: maxBytes, ll: list.New(), index: make(map[string]*list.Element)}
}

// Get returns the value stored under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.index[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores v under key, charging size bytes against the budget and
// evicting least-recently-hit entries until it fits. A value larger than
// the whole budget is rejected (returns false) rather than flushing the
// cache for an entry that could never be retained alongside others.
// Storing an existing key replaces its value and re-charges its size.
func (c *Cache[V]) Put(key string, v V, size int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max <= 0 || size > c.max || size < 0 {
		c.rejected++
		return false
	}
	if el, ok := c.index[key]; ok {
		e := el.Value.(*entry[V])
		c.bytes -= e.size
		e.val, e.size = v, size
		c.bytes += size
		c.ll.MoveToFront(el)
	} else {
		c.index[key] = c.ll.PushFront(&entry[V]{key: key, val: v, size: size})
		c.bytes += size
	}
	for c.bytes > c.max {
		back := c.ll.Back()
		e := back.Value.(*entry[V])
		if e.key == key {
			// The new entry itself is at the back only when it is the
			// sole entry; the size check above guarantees it fits.
			break
		}
		c.ll.Remove(back)
		delete(c.index, e.key)
		c.bytes -= e.size
		c.evictions++
	}
	c.puts++
	return true
}

// Stats snapshots the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Puts: c.puts,
		Evictions: c.evictions, Rejected: c.rejected,
		Entries: c.ll.Len(), Bytes: c.bytes, MaxBytes: c.max,
	}
}

// Flights tracks in-progress computations by key so duplicate work can
// join the leader instead of executing again. T is the leader's token
// (for gsnpd, the leader job's registry entry).
type Flights[T any] struct {
	mu    sync.Mutex
	m     map[string]T
	joins uint64
}

// NewFlights builds an empty registry.
func NewFlights[T any]() *Flights[T] {
	return &Flights[T]{m: make(map[string]T)}
}

// Begin registers t as the leader for key if no flight is in progress,
// returning (t, false). If a leader already exists, Begin counts a join
// and returns (leader, true) — the caller should attach to the leader's
// result instead of executing.
func (f *Flights[T]) Begin(key string, t T) (T, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if cur, ok := f.m[key]; ok {
		f.joins++
		return cur, true
	}
	f.m[key] = t
	return t, false
}

// End closes the flight for key. The leader must call it exactly once
// when its execution resolves (success or failure), after any cache Put,
// so late submissions either join a live leader or hit the cache.
func (f *Flights[T]) End(key string) {
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
}

// Joins returns how many submissions joined an existing flight.
func (f *Flights[T]) Joins() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.joins
}
