package service

import (
	"sync/atomic"
	"testing"
)

// benchSpec is the job both serving benchmarks submit: a small synthetic
// genome, large enough that engine work dominates a cold serve.
func benchGenome(b *testing.B) (string, map[string]any) {
	dir := b.TempDir()
	writeGenomeDir(b, dir, testSpecs(2, 1500, 7))
	return dir, map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}
}

// BenchmarkServeColdJob measures end-to-end job serving with the result
// cache disabled: every iteration executes the engine. This is the
// baseline the cached path is compared against.
func BenchmarkServeColdJob(b *testing.B) {
	_, spec := benchGenome(b)
	_, ts := newTestServer(b, Config{Workers: 2, CacheOff: true})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := postJob(b, ts, spec)
		if _, state := readStream(b, ts, id); state != StateDone {
			b.Fatalf("state %q", state)
		}
	}
}

// BenchmarkServeCachedJob measures the same job served from the result
// cache after one priming run. Alongside the latency, it gates the
// optimisation's contract: a cached serve performs zero pool dequeues
// (the OnDequeue hook observes every dispatch, so any engine work at all
// fails the benchmark).
func BenchmarkServeCachedJob(b *testing.B) {
	_, spec := benchGenome(b)
	var dequeues atomic.Int64
	cfg := Config{Workers: 2, OnDequeue: func(string, int) { dequeues.Add(1) }}
	_, ts := newTestServer(b, cfg)

	id := postJob(b, ts, spec)
	if _, state := readStream(b, ts, id); state != StateDone {
		b.Fatalf("priming state %q", state)
	}
	requirePuts(b, ts, 1)
	primed := dequeues.Load()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := postJob(b, ts, spec)
		if _, state := readStream(b, ts, id); state != StateCached {
			b.Fatalf("state %q, want cached", state)
		}
	}
	b.StopTimer()
	if got := dequeues.Load(); got != primed {
		b.Fatalf("cached serves performed %d pool dequeues, want 0", got-primed)
	}
}
