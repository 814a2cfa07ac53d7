package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsnp/internal/genomejob"
)

// runJob submits spec to srv in-process and waits for the job to finish.
func runJob(t testing.TB, srv *Server, spec map[string]any) *jobState {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseJobSpec(body)
	if err != nil {
		t.Fatal(err)
	}
	js, err := srv.submit(parsed)
	if err != nil {
		t.Fatal(err)
	}
	timeout := time.NewTimer(time.Minute) // stopped, so 200 jobs leave no live timers
	defer timeout.Stop()
	select {
	case <-js.done:
	case <-timeout.C:
		t.Fatalf("job %s never finished", js.id)
	}
	settle(js)
	return js
}

// settle waits for finish to return on a job whose done has closed.
// finish releases the job's flight after done closes and cancels the
// job's context last, so an identical submission made after settle
// executes (or hits the cache) instead of joining the finished job.
func settle(js *jobState) {
	<-js.ctx.Done()
}

// cachedSize is what the result cache charges for spec's clean result.
func cachedSize(t *testing.T, spec map[string]any) int64 {
	t.Helper()
	srv, _ := newTestServer(t, Config{Workers: 1})
	runJob(t, srv, spec)
	return srv.Statz().Cache.Bytes
}

// heapAfterGC is the live heap once garbage, pooled buffers included, is
// collected.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestServiceRegistryForgetsFinishedJobs: 200 sequential jobs with a cache
// too small to keep a result leave the heap flat — a finished job keeps no result bytes, and the
// registry forgets finished jobs past maxFinishedJobs — and the store holds
// exactly the files the remembered jobs refer to: the first job, whose
// result no later job shares, answers 404 and its file is gone.
func TestServiceRegistryForgetsFinishedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dirFirst, dir := t.TempDir(), t.TempDir()
	writeGenomeDir(t, dirFirst, testSpecs(1, 1400, 17))
	writeGenomeDir(t, dir, testSpecs(1, 1400, 61))
	srv, ts := newTestServer(t, Config{Workers: 1, CacheBytes: 1})
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}

	const jobs, settled = 200, maxFinishedJobs + 20
	first := runJob(t, srv, map[string]any{"genome_dir": dirFirst, "engine": "gsnp-cpu", "window": 256})
	firstFile := srv.store.path(first.stream[0].out.digest)
	var heapSettled uint64
	for i := 2; i <= jobs; i++ {
		if js := runJob(t, srv, spec); js.state != StateDone {
			t.Fatalf("job %s ended %q", js.id, js.state)
		}
		if i == settled {
			heapSettled = heapAfterGC()
		}
	}
	// A job's result text is ~80 KB; its registry entry is well under 2 KB.
	if grew := int64(heapAfterGC()) - int64(heapSettled); grew > 64<<10 {
		t.Errorf("heap grew %d bytes over the last %d jobs, want it flat", grew, jobs-settled)
	}
	if st := srv.Statz(); st.Jobs != maxFinishedJobs || st.Store.Files != 1 {
		t.Errorf("statz: %d jobs, %d stored files; want %d and 1", st.Jobs, st.Store.Files, maxFinishedJobs)
	}
	for _, path := range []string{"/jobs/" + first.id, "/jobs/" + first.id + "/stream"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s of a forgotten job: %d, want 404", path, resp.StatusCode)
		}
	}
	if _, err := os.Stat(firstFile); !os.IsNotExist(err) {
		t.Errorf("the forgotten job's stored result is still there: %v", err)
	}
	storeOwned(t, srv)
}

// TestServiceJournalStoreOwnership: through cold, cached, joined,
// cancelled, partial and failed jobs, with a cache too small for two
// results so entries are evicted, the store holds exactly the files the
// server refers to. Once replays of the one cached result push every
// other job out of the registry, exactly that result's files are left;
// a restart, with nothing pending, sweeps them all.
func TestServiceJournalStoreOwnership(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	badDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(badDir, "chr1.fa"), []byte(">chr1\nACGTACGTACGTACGT\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(badDir, "chr1.soap"), []byte("not a soap record\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dirA, dirB, dirJoin, dirLong := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	writeGenomeDir(t, dirA, testSpecs(2, 1500, 21))
	writeGenomeDir(t, dirB, testSpecs(1, 1400, 22))
	writeGenomeDir(t, dirJoin, testSpecs(3, 1400, 23))
	writeGenomeDir(t, dirLong, testSpecs(6, 4000, 47))
	spec := func(dir string) map[string]any {
		return map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}
	}
	specA, specB := spec(dirA), spec(dirB)
	budget := max(cachedSize(t, specA), cachedSize(t, specB))

	jdir := filepath.Join(t.TempDir(), "journal")
	release := make(chan struct{})
	gate := sync.OnceFunc(func() { <-release })
	srv, ts := newTestServer(t, Config{Workers: 1, JournalDir: jdir, CacheBytes: budget,
		OnDequeue: func(job string, _ int) {
			if job == "j7" { // the joined pair's leader waits for its follower
				gate()
			}
		}})
	for _, tc := range []struct {
		spec  map[string]any
		state string
	}{
		{specA, StateDone}, {specA, StateCached}, {specB, StateDone}, {specA, StateDone},
		{spec(badDir), StateFailed},
		{map[string]any{"genome_dir": badDir, "engine": "gsnp-cpu", "window": 256, "quarantine": true}, StatePartial},
	} {
		if js := runJob(t, srv, tc.spec); js.state != tc.state {
			t.Fatalf("job %s ended %q, want %q", js.id, js.state, tc.state)
		}
	}
	leader, follower := postJob(t, ts, spec(dirJoin)), postJob(t, ts, spec(dirJoin))
	close(release)
	if leader != "j7" || srv.Statz().SingleFlightJoins != 1 {
		t.Fatalf("leader %s, %d joins; want j7 joined once", leader, srv.Statz().SingleFlightJoins)
	}
	long := postJob(t, ts, spec(dirLong))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+long, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for id, want := range map[string]string{leader: StateDone, follower: StateCached, long: StateCancelled} {
		if _, state := readStream(t, ts, id); state != want {
			t.Fatalf("job %s ended %q, want %q", id, state, want)
		}
	}
	st := srv.Statz()
	if st.Cache.Evictions == 0 {
		t.Fatalf("no cache eviction: %+v", st.Cache)
	}
	storeOwned(t, srv)
	ents, err := os.ReadDir(srv.store.dir)
	if err != nil || len(ents) != st.Store.Files {
		t.Errorf("store holds %d files (%v), statz says %d", len(ents), err, st.Store.Files)
	}

	var last *jobState
	for i := 0; i < maxFinishedJobs; i++ {
		if last = runJob(t, srv, specA); last.state != StateCached {
			t.Fatalf("replay %s ended %q, want cached", last.id, last.state)
		}
	}
	storeOwned(t, srv)
	if st := srv.Statz().Store; st.Files != len(last.stream)-1 {
		t.Errorf("store holds %d files once only A's replays are remembered, want A's %d", st.Files, len(last.stream)-1)
	}
	ts.Close()
	drainT(t, srv)

	again, _ := newTestServer(t, Config{Workers: 1, JournalDir: jdir})
	if ents, err := os.ReadDir(again.store.dir); err != nil || len(ents) != 0 {
		t.Errorf("store holds %d files (%v) after a restart with nothing pending", len(ents), err)
	}
}

// gatedWriter is a stream client that stalls at its first write until open
// closes, then takes everything.
type gatedWriter struct {
	header  http.Header
	started chan struct{}
	open    chan struct{}
	once    sync.Once
	body    bytes.Buffer
}

func newGatedWriter(open chan struct{}) *gatedWriter {
	return &gatedWriter{header: make(http.Header), started: make(chan struct{}), open: open}
}

func (w *gatedWriter) Header() http.Header { return w.header }
func (w *gatedWriter) WriteHeader(int)     {}
func (w *gatedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() {
		close(w.started)
		<-w.open
	})
	return w.body.Write(p)
}

// TestServiceStoreReleaseRacesStream: clients streaming a result — the run
// that made it and a cache replay of it — while its cache entry is evicted
// and the registry forgets both jobs still receive every byte, and the
// stored file goes with the last of them.
func TestServiceStoreReleaseRacesStream(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dirX, dirY := t.TempDir(), t.TempDir()
	writeGenomeDir(t, dirX, testSpecs(2, 1400, 5))
	writeGenomeDir(t, dirY, testSpecs(1, 1400, 6))
	specX := map[string]any{"genome_dir": dirX, "engine": "gsnp-cpu", "window": 256}
	specY := map[string]any{"genome_dir": dirY, "engine": "gsnp-cpu", "window": 256}
	budget := cachedSize(t, specX) + cachedSize(t, specY) - 1

	srv, ts := newTestServer(t, Config{Workers: 1, CacheBytes: budget})
	x := runJob(t, srv, specX)
	replay := runJob(t, srv, specX)
	if x.state != StateDone || replay.state != StateCached {
		t.Fatalf("states %q/%q, want done/cached", x.state, replay.state)
	}
	var files []string
	for _, rec := range x.stream[:2] {
		files = append(files, srv.store.path(rec.out.digest))
	}

	open := make(chan struct{})
	var wg sync.WaitGroup
	streams := map[*jobState]*gatedWriter{}
	for _, js := range []*jobState{x, replay} {
		want := readStreamRaw(t, ts, js.id)
		w := newGatedWriter(open)
		streams[js] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/jobs/"+js.id+"/stream", nil))
			if !bytes.Equal(w.body.Bytes(), want) {
				t.Errorf("job %s: a client streaming through the release read different bytes", js.id)
			}
		}()
		<-w.started
	}

	// Y's result evicts X's; Y's replays push X and its replay out of the
	// registry.
	runJob(t, srv, specY)
	for i := 0; i < maxFinishedJobs; i++ {
		runJob(t, srv, specY)
	}
	if st := srv.Statz(); st.Cache.Evictions != 1 {
		t.Fatalf("cache: %+v, want X's entry evicted", st.Cache)
	}
	srv.mu.Lock()
	forgotten := srv.jobs[x.id] == nil && srv.jobs[replay.id] == nil
	srv.mu.Unlock()
	if !forgotten {
		t.Fatal("the registry still remembers X's jobs")
	}
	for _, f := range files {
		if _, err := os.Stat(f); err != nil {
			t.Fatalf("a file streaming clients hold is gone: %v", err)
		}
	}
	close(open)
	wg.Wait()
	for _, f := range files {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("no one holds %s, yet it is still there: %v", f, err)
		}
	}
	storeOwned(t, srv)
}

// TestServiceStoreWriteFailureFailsChromosome: a chromosome whose result
// cannot be stored has nothing to serve, so it fails — the job is partial,
// never cached — and a resubmission recomputes it.
func TestServiceStoreWriteFailureFailsChromosome(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	opts := genomejob.Options{Engine: "gsnp-cpu", Format: "soap", Window: 256}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(2, 1400, 61))
	base := serialBaseline(t, dir, opts)
	jdir := filepath.Join(t.TempDir(), "journal")
	lost := filepath.Base(storedPath(jdir, base["chr01.fa"]))
	var failed atomic.Bool
	fs := &scriptFS{script: func(_ int, op fsOp) fate {
		if writeOf(lost)(op) && failed.CompareAndSwap(false, true) {
			return fail
		}
		return pass
	}}
	srv, err := New(Config{Workers: 1, JournalDir: jdir, fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}
	js := runJob(t, srv, spec)
	if js.state != StatePartial || js.chroms[0].State != StateFailed || js.chroms[1].State != StateOK {
		t.Fatalf("job %s ended %q with %+v, want partial with chr01 failed", js.id, js.state, js.chroms)
	}
	again := runJob(t, srv, spec)
	if again.state != StateDone {
		t.Fatalf("resubmission ended %q, want done", again.state)
	}
	for _, rec := range again.stream[:2] {
		if string(storedText(t, srv, rec.out)) != base64.StdEncoding.EncodeToString(base[rec.Name]) {
			t.Errorf("%s: the resubmission stored different bytes", rec.Name)
		}
	}
	storeOwned(t, srv)
}
