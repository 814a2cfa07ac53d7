package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// dropEmptySNPs removes zero-length .snp files from a genome dir.
func dropEmptySNPs(t testing.TB, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.snp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range matches {
		fi, err := os.Stat(m)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			if err := os.Remove(m); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// statz fetches GET /statz.
func statz(t testing.TB, ts *httptest.Server) Statz {
	t.Helper()
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /statz: %d", resp.StatusCode)
	}
	var st Statz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// requirePuts asserts, once, that the cache holds at least n stored
// results. Call it after a clean job's stream has been read to its Final
// record: finish stores the result before it publishes that record, so a
// resubmission from here on hits the cache rather than joining a closing
// flight — there is nothing to wait for, and a poll here would hide a
// regression of that order.
func requirePuts(t testing.TB, ts *httptest.Server, n uint64) {
	t.Helper()
	if st := statz(t, ts); st.Cache.Puts < n {
		t.Fatalf("cache holds %d stored results after the Final record, want >= %d: %+v", st.Cache.Puts, n, st)
	}
}

// dequeueCounter wires an atomic dispatch counter into a test server.
func dequeueCounter(cfg Config) (Config, *atomic.Int64) {
	var n atomic.Int64
	cfg.OnDequeue = func(string, int) { n.Add(1) }
	return cfg, &n
}

// TestServiceCacheHitReplay: resubmitting an identical genome job is
// served from the result cache — byte-identical per-chromosome records,
// a "cached" final state, and zero pool dequeues. A third submission
// carrying the same data inline (uploaded) hits the same content key.
func TestServiceCacheHitReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1400, 61))
	// A chromosome with no known variants gets a zero-length .snp file,
	// which the uploaded path (snp omitted) legitimately keys differently:
	// drop the empty files so both submission paths carry the same inputs.
	dropEmptySNPs(t, dir)
	cfg, dequeues := dequeueCounter(Config{Workers: 2})
	_, ts := newTestServer(t, cfg)
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}

	id1 := postJob(t, ts, spec)
	recs1, state1 := readStream(t, ts, id1)
	if state1 != StateDone {
		t.Fatalf("first run state %q, want done", state1)
	}
	requirePuts(t, ts, 1)
	cold := dequeues.Load()
	if cold == 0 {
		t.Fatal("cold run performed no pool work")
	}

	id2 := postJob(t, ts, spec)
	recs2, state2 := readStream(t, ts, id2)
	if state2 != StateCached {
		t.Fatalf("resubmission final state %q, want %q", state2, StateCached)
	}
	if got := dequeues.Load(); got != cold {
		t.Fatalf("cache hit dispatched pool work: %d dequeues, want %d", got, cold)
	}
	if len(recs2) != len(recs1) {
		t.Fatalf("replay streamed %d records, want %d", len(recs2), len(recs1))
	}
	for name, r1 := range recs1 {
		r2, ok := recs2[name]
		if !ok {
			t.Fatalf("replay missing chromosome %s", name)
		}
		if !bytes.Equal(r2.OutputB64, r1.OutputB64) {
			t.Errorf("%s: replayed bytes differ from the original run", name)
		}
		if r2.State != r1.State || r2.Sites != r1.Sites || r2.Index != r1.Index {
			t.Errorf("%s: replayed record fields differ: %+v vs %+v", name, r2, r1)
		}
	}

	// The status document reports the first-class cached state.
	if st := getStatus(t, ts, id2); st.State != StateCached || st.Completed != st.Total {
		t.Errorf("cached job status %q %d/%d, want cached and complete", st.State, st.Completed, st.Total)
	}

	// Content addressing: the same bytes uploaded inline share the key.
	var inputs []map[string]any
	for _, name := range []string{"chr01", "chr02", "chr03"} {
		ref, err := os.ReadFile(filepath.Join(dir, name+".fa"))
		if err != nil {
			t.Fatal(err)
		}
		aln, err := os.ReadFile(filepath.Join(dir, name+".soap"))
		if err != nil {
			t.Fatal(err)
		}
		in := map[string]any{"name": name, "ref": string(ref), "aln": string(aln)}
		if snp, err := os.ReadFile(filepath.Join(dir, name+".snp")); err == nil && len(snp) > 0 {
			in["snp"] = string(snp)
		}
		inputs = append(inputs, in)
	}
	id3 := postJob(t, ts, map[string]any{"inputs": inputs, "engine": "gsnp-cpu", "window": 256})
	recs3, state3 := readStream(t, ts, id3)
	if state3 != StateCached {
		t.Fatalf("uploaded twin final state %q, want %q (content-addressed key)", state3, StateCached)
	}
	for name, r1 := range recs1 {
		if !bytes.Equal(recs3[name].OutputB64, r1.OutputB64) {
			t.Errorf("%s: uploaded twin bytes differ", name)
		}
	}
	if got := dequeues.Load(); got != cold {
		t.Fatalf("uploaded twin dispatched pool work: %d dequeues, want %d", got, cold)
	}

	st := statz(t, ts)
	if st.Cache.Hits != 2 || st.Cache.Puts != 1 || st.Cache.Entries != 1 {
		t.Errorf("statz after two hits: %+v", st)
	}
	if st.Cache.Bytes <= 0 || st.Cache.Bytes > st.Cache.MaxBytes {
		t.Errorf("implausible cache occupancy: %+v", st.Cache)
	}
	// healthz carries the occupancy too.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["cache_bytes"] != float64(st.Cache.Bytes) {
		t.Errorf("healthz cache_bytes %v, want statz's %d", health["cache_bytes"], st.Cache.Bytes)
	}
}

// TestServiceSingleFlightDedup: N identical jobs submitted concurrently
// execute exactly once — the followers join the leader's stream — and
// every stream delivers byte-identical chromosome bytes.
func TestServiceSingleFlightDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(4, 2500, 83))
	cfg, dequeues := dequeueCounter(Config{Workers: 1})
	_, ts := newTestServer(t, cfg)
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}

	const jobs = 3
	var wg sync.WaitGroup
	ids := make([]string, jobs)
	streams := make([]map[string]StreamRecord, jobs)
	states := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids[i] = postJob(t, ts, spec)
			streams[i], states[i] = readStream(t, ts, ids[i])
		}(i)
	}
	wg.Wait()

	// Exactly one execution: 4 chromosomes, 4 dequeues, however the three
	// submissions interleaved.
	if got := dequeues.Load(); got != 4 {
		t.Fatalf("%d pool dequeues for %d identical jobs, want one execution (4)", got, jobs)
	}
	var done, cached int
	for i, state := range states {
		switch state {
		case StateDone:
			done++
		case StateCached:
			cached++
		default:
			t.Fatalf("job %s final state %q", ids[i], state)
		}
	}
	// The leader reports done; every deduped submission reports cached
	// (via a live join or, if it raced the leader's completion, a replay).
	if done != 1 || cached != jobs-1 {
		t.Fatalf("states %v: want exactly one done and %d cached", states, jobs-1)
	}
	for i := 1; i < jobs; i++ {
		if len(streams[i]) != len(streams[0]) {
			t.Fatalf("job %d streamed %d chromosomes, job 0 streamed %d", i, len(streams[i]), len(streams[0]))
		}
		for name, r0 := range streams[0] {
			if !bytes.Equal(streams[i][name].OutputB64, r0.OutputB64) {
				t.Errorf("job %d %s: bytes differ across deduped submissions", i, name)
			}
		}
	}
	st := statz(t, ts)
	if st.SingleFlightJoins+st.Cache.Hits != jobs-1 {
		t.Errorf("joins %d + hits %d, want %d deduped submissions: %+v",
			st.SingleFlightJoins, st.Cache.Hits, jobs-1, st)
	}
}

// readStreamRaw returns the entire NDJSON body of a stream, byte for
// byte, for cross-subscriber identity checks.
func readStreamRaw(t testing.TB, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServiceConcurrentStreamSubscribers: N clients attach to one job's
// stream at staggered times — against a live run, a cached replay, and a
// single-flight follower — and every client receives the identical
// replay+follow byte sequence. Run under -race by the service-e2e gate.
func TestServiceConcurrentStreamSubscribers(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(4, 2000, 19))
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}

	subscribeAll := func(id string) [][]byte {
		const subs = 4
		bodies := make([][]byte, subs)
		var wg sync.WaitGroup
		for i := 0; i < subs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Staggered attach: later subscribers join mid-stream and
				// must replay what they missed.
				time.Sleep(time.Duration(i) * 15 * time.Millisecond)
				bodies[i] = readStreamRaw(t, ts, id)
			}(i)
		}
		wg.Wait()
		return bodies
	}
	check := func(kind string, bodies [][]byte) {
		t.Helper()
		if len(bodies[0]) == 0 {
			t.Fatalf("%s: empty stream body", kind)
		}
		for i := 1; i < len(bodies); i++ {
			if !bytes.Equal(bodies[i], bodies[0]) {
				t.Errorf("%s: subscriber %d received different bytes (%d vs %d)",
					kind, i, len(bodies[i]), len(bodies[0]))
			}
		}
	}

	idLive := postJob(t, ts, spec)
	check("live", subscribeAll(idLive))
	requirePuts(t, ts, 1)

	idCached := postJob(t, ts, spec)
	check("cached", subscribeAll(idCached))
	if _, state := readStream(t, ts, idCached); state != StateCached {
		t.Fatalf("resubmission state %q, want cached", state)
	}

	// Single-flight follower: new data, leader submitted first, follower
	// joins while the leader runs; subscribers watch the *follower*.
	dir2 := t.TempDir()
	writeGenomeDir(t, dir2, testSpecs(4, 2000, 131))
	spec2 := map[string]any{"genome_dir": dir2, "engine": "gsnp-cpu", "window": 256}
	idLeader := postJob(t, ts, spec2)
	idFollower := postJob(t, ts, spec2)
	check("joined", subscribeAll(idFollower))
	readStream(t, ts, idLeader)
}

// TestServiceCacheNeverStoresDegradedJobs: failed, partial (quarantined)
// and cancelled runs must never be cached — each resubmission executes
// again — and changing any input's bytes changes the key.
func TestServiceCacheNeverStoresDegradedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	// A reference with an unparseable alignment file.
	badDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(badDir, "chr1.fa"), []byte(">chr1\nACGTACGTACGTACGT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(badDir, "chr1.soap"), []byte("not a soap record\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	cfg, dequeues := dequeueCounter(Config{Workers: 1})
	_, ts := newTestServer(t, cfg)

	// Failed jobs: never cached.
	failSpec := map[string]any{"genome_dir": badDir, "engine": "gsnp-cpu", "window": 256}
	for i := 0; i < 2; i++ {
		id := postJob(t, ts, failSpec)
		if _, state := readStream(t, ts, id); state != StateFailed {
			t.Fatalf("bad-input run %d state %q, want failed", i, state)
		}
	}
	if st := statz(t, ts); st.Cache.Hits != 0 || st.Cache.Puts != 0 {
		t.Errorf("failed jobs touched the cache: %+v", st)
	}
	if dequeues.Load() != 2 {
		t.Errorf("failed resubmission did not re-execute: %d dequeues, want 2", dequeues.Load())
	}

	// Partial (quarantine) jobs: executed output exists, but it is
	// degraded — never cached either.
	quarSpec := map[string]any{"genome_dir": badDir, "engine": "gsnp-cpu", "window": 256, "quarantine": true}
	for i := 0; i < 2; i++ {
		id := postJob(t, ts, quarSpec)
		if _, state := readStream(t, ts, id); state != StatePartial {
			t.Fatalf("quarantined run %d state %q, want partial", i, state)
		}
	}
	if st := statz(t, ts); st.Cache.Hits != 0 || st.Cache.Puts != 0 {
		t.Errorf("partial jobs touched the cache: %+v", st)
	}

	// Cancelled jobs: never cached; the resubmission runs for real.
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(6, 4000, 47))
	runSpec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}
	idCancel := postJob(t, ts, runSpec)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+idCancel, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if _, state := readStream(t, ts, idCancel); state != StateCancelled {
		t.Fatalf("cancelled job state %q", state)
	}
	before := dequeues.Load()
	idRerun := postJob(t, ts, runSpec)
	if _, state := readStream(t, ts, idRerun); state != StateDone {
		t.Fatalf("rerun after cancel state %q, want done (fresh execution)", state)
	}
	if dequeues.Load() == before {
		t.Error("rerun after cancel dispatched no pool work")
	}
	requirePuts(t, ts, 1)

	// Changed input bytes: the content-addressed key moves, the stale
	// result cannot be served.
	prev := dequeues.Load()
	writeGenomeDir(t, dir, testSpecs(6, 4000, 48)) // same paths, new bytes
	idChanged := postJob(t, ts, runSpec)
	if _, state := readStream(t, ts, idChanged); state != StateDone {
		t.Fatalf("changed-input run state %q, want done", state)
	}
	if dequeues.Load() == prev {
		t.Error("changed inputs served a stale cached result")
	}
}

// TestServiceCacheEviction: the byte budget is strict — filling the cache
// past it evicts the least-recently-hit entry, which then re-executes on
// resubmission.
func TestServiceCacheEviction(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	writeGenomeDir(t, dirA, testSpecs(2, 1500, 21))
	writeGenomeDir(t, dirB, testSpecs(1, 900, 22))
	specA := map[string]any{"genome_dir": dirA, "engine": "gsnp-cpu", "window": 256}
	specB := map[string]any{"genome_dir": dirB, "engine": "gsnp-cpu", "window": 256}

	// Measure job A's cached size with an unconstrained server.
	_, ts := newTestServer(t, Config{Workers: 2})
	readStream(t, ts, postJob(t, ts, specA))
	requirePuts(t, ts, 1)
	sizeA := statz(t, ts).Cache.Bytes
	if sizeA <= 0 {
		t.Fatalf("no occupancy after caching job A: %+v", statz(t, ts))
	}

	// A budget that holds A alone: storing B must evict A.
	cfg, dequeues := dequeueCounter(Config{Workers: 2, CacheBytes: sizeA})
	_, ts2 := newTestServer(t, cfg)
	readStream(t, ts2, postJob(t, ts2, specA))
	requirePuts(t, ts2, 1)
	readStream(t, ts2, postJob(t, ts2, specB))
	requirePuts(t, ts2, 2)
	st := statz(t, ts2)
	if st.Cache.Evictions == 0 {
		t.Fatalf("storing past the budget evicted nothing: %+v", st)
	}
	if st.Cache.Bytes > st.Cache.MaxBytes {
		t.Fatalf("occupancy exceeds the budget: %+v", st)
	}
	before := dequeues.Load()
	idA2 := postJob(t, ts2, specA)
	if _, state := readStream(t, ts2, idA2); state != StateDone {
		t.Fatalf("evicted job resubmission state %q, want done (re-executed)", state)
	}
	if dequeues.Load() == before {
		t.Error("evicted entry was served from cache")
	}
}

// TestServiceCachedServeZeroPoolWork is the pinned gate the benchmark
// relies on: a cache hit performs zero engine work — not a single pool
// dequeue — across repeated serves. The OnDequeue hook observes every
// dispatch, so a zero delta proves the scheduler was never touched.
func TestServiceCachedServeZeroPoolWork(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(2, 1300, 71))
	cfg, dequeues := dequeueCounter(Config{Workers: 2})
	_, ts := newTestServer(t, cfg)
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}

	readStream(t, ts, postJob(t, ts, spec))
	requirePuts(t, ts, 1)
	primed := dequeues.Load()

	for i := 0; i < 5; i++ {
		id := postJob(t, ts, spec)
		if _, state := readStream(t, ts, id); state != StateCached {
			t.Fatalf("serve %d state %q, want cached", i, state)
		}
	}
	if got := dequeues.Load(); got != primed {
		t.Fatalf("%d pool dequeues during cached serves, want 0", got-primed)
	}
	if st := statz(t, ts); st.Cache.Hits < 5 {
		t.Errorf("expected >= 5 cache hits, statz: %+v", st)
	}
}

// TestServiceCancelFollowerIsolation: cancelling a single-flight follower
// detaches it without perturbing the leader, which still completes and
// is cached.
func TestServiceCancelFollowerIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	// Sized like TestServiceCancelIsolation's long job so the leader is
	// reliably still in flight when the follower's cancel lands.
	writeGenomeDir(t, dir, testSpecs(16, 5000, 91))
	cfg, _ := dequeueCounter(Config{Workers: 1})
	_, ts := newTestServer(t, cfg)
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}

	idLeader := postJob(t, ts, spec)
	idFollower := postJob(t, ts, spec)
	// Confirm the second submission really joined (not a post-completion
	// cache hit), else the cancel exercise is vacuous.
	if statz(t, ts).SingleFlightJoins != 1 {
		t.Skipf("leader finished before the follower joined; nothing to cancel")
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+idFollower, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()

	if _, state := readStream(t, ts, idFollower); state != StateCancelled {
		t.Fatalf("cancelled follower state %q, want cancelled", state)
	}
	if _, state := readStream(t, ts, idLeader); state != StateDone {
		t.Fatalf("leader state %q after follower cancel, want done", state)
	}
	requirePuts(t, ts, 1)
	if st := statz(t, ts); st.Cache.Puts != 1 {
		t.Errorf("leader result not cached after follower cancel: %+v", st)
	}
}
