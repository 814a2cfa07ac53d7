package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsnp/internal/genomejob"
	"gsnp/internal/journal"
)

// uploadSpec carries a genome dir's chromosomes inline, so the job gets a
// spool directory of its own.
func uploadSpec(t testing.TB, dir string, names ...string) map[string]any {
	t.Helper()
	var inputs []map[string]any
	for _, name := range names {
		in := map[string]any{"name": name}
		for key, ext := range map[string]string{"ref": ".fa", "aln": ".soap", "snp": ".snp"} {
			data, err := os.ReadFile(filepath.Join(dir, name+ext))
			if err != nil {
				t.Fatal(err)
			}
			if len(data) > 0 {
				in[key] = string(data)
			}
		}
		inputs = append(inputs, in)
	}
	return map[string]any{"inputs": inputs, "engine": "gsnp-cpu", "window": 256}
}

// walHasFinal reports whether the journal under jdir holds a final entry
// for the job.
func walHasFinal(t testing.TB, jdir, id string) bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(jdir, journal.WALName))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.Split(data, []byte("\n")) {
		var e journal.Entry
		if json.Unmarshal(line, &e) == nil && e.Job == id && e.Kind == journal.KindFinal {
			return true
		}
	}
	return false
}

// lifecycleFixture is one job on its way to its Final record.
type lifecycleFixture struct {
	srv      *Server
	ts       *httptest.Server
	jdir     string
	dequeues *atomic.Int64
	id       string
	spec     map[string]any // resubmitting it must hit the cache, or execute afresh
	puts     uint64         // cache.puts the Final record must already see
}

// TestServiceJournalLifecycleFinalOrder pins finish's order on every
// combination of sources a job can have. The moment the Final record is
// visible — followLog returns in the test's goroutine, while finish may
// still be running in the job's — the WAL already holds the job's final
// entry, its spool directory is gone and a clean leader's
// result is in the cache, so an identical submission made right then is a
// cache hit: it neither joins the closing flight nor executes. A leader
// that did not run clean (cancelled) has released its flight by then, so
// the identical submission is neither a join nor a hit: it executes.
func TestServiceJournalLifecycleFinalOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir, dirJoin, dirCancel := t.TempDir(), t.TempDir(), t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1400, 61))
	writeGenomeDir(t, dirJoin, testSpecs(4, 2500, 83))
	writeGenomeDir(t, dirCancel, testSpecs(6, 4000, 47))
	upload := uploadSpec(t, dir, "chr01", "chr02", "chr03")

	// cold, cached and joined share one server; recovered needs a restart.
	jdir := filepath.Join(t.TempDir(), "journal")
	cfg, dequeues := dequeueCounter(Config{Workers: 1, JournalDir: jdir})
	srv, ts := newTestServer(t, cfg)
	shared := func(id string, spec map[string]any, puts uint64) lifecycleFixture {
		return lifecycleFixture{srv: srv, ts: ts, jdir: jdir, dequeues: dequeues, id: id, spec: spec, puts: puts}
	}

	for _, tc := range []struct {
		name      string
		state     string
		recovered bool
		rerun     bool // the resubmission executes instead of hitting the cache
		setup     func(t *testing.T) lifecycleFixture
	}{
		{name: "cold", state: StateDone, setup: func(t *testing.T) lifecycleFixture {
			return shared(postJob(t, ts, upload), upload, 1)
		}},
		{name: "cached", state: StateCached, setup: func(t *testing.T) lifecycleFixture {
			return shared(postJob(t, ts, upload), upload, 1)
		}},
		{name: "joined", state: StateCached, setup: func(t *testing.T) lifecycleFixture {
			spec := map[string]any{"genome_dir": dirJoin, "engine": "gsnp-cpu", "window": 256}
			joins := srv.Statz().SingleFlightJoins
			postJob(t, ts, spec)
			follower := postJob(t, ts, spec)
			if srv.Statz().SingleFlightJoins != joins+1 {
				t.Skip("leader finished before the follower joined")
			}
			// The leader's Put precedes its Final record, which the
			// follower's own Final record follows.
			return shared(follower, spec, 2)
		}},
		{name: "cancelled", state: StateCancelled, rerun: true, setup: func(t *testing.T) lifecycleFixture {
			spec := map[string]any{"genome_dir": dirCancel, "engine": "gsnp-cpu", "window": 256}
			puts := srv.Statz().Cache.Puts
			id := postJob(t, ts, spec)
			srv.mu.Lock()
			js := srv.jobs[id]
			srv.mu.Unlock()
			srv.cancel(js)
			return shared(id, spec, puts)
		}},
		{name: "recovered", state: StateDone, recovered: true, setup: func(t *testing.T) lifecycleFixture {
			// Incarnation A completes the job but its Final append is
			// faulted: pending in the WAL, spool and checkpoints intact.
			jdir := filepath.Join(t.TempDir(), "journal")
			srvA, tsA := newTestServer(t, Config{Workers: 2, JournalDir: jdir, fs: finalFails()})
			id := postJob(t, tsA, upload)
			if _, state := readStream(t, tsA, id); state != StateDone {
				t.Fatalf("first run state %q, want done", state)
			}
			tsA.Close()
			drainT(t, srvA)
			// One tampered checkpoint: incarnation B replays two
			// chromosomes and pools the third.
			base := serialBaseline(t, dir, genomejob.Options{Engine: "gsnp-cpu", Format: "soap", Window: 256})
			if err := os.WriteFile(storedPath(jdir, base["chr02.fa"]), []byte("tampered\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg, dequeues := dequeueCounter(Config{Workers: 1, JournalDir: jdir})
			srvB, tsB := newTestServer(t, cfg)
			return lifecycleFixture{srv: srvB, ts: tsB, jdir: jdir, dequeues: dequeues, id: id, spec: upload, puts: 1}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := tc.setup(t)
			f.srv.mu.Lock()
			js := f.srv.jobs[f.id]
			f.srv.mu.Unlock()
			if js == nil {
				t.Fatalf("job %s not registered", f.id)
			}
			var final logRecord
			joinable := false // a degraded leader still open as a flight at its Final record
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := js.followLog(ctx, func(recs []logRecord) error {
				final = recs[len(recs)-1]
				if final.Final && tc.rerun {
					f.srv.mu.Lock()
					joinable = f.srv.flights[js.key] == js
					f.srv.mu.Unlock()
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if joinable {
				t.Error("a leader that did not run clean is still joinable when its Final record is visible")
			}

			if !final.Final || final.State != tc.state || final.Recovered != tc.recovered {
				t.Errorf("final record %+v, want state %q recovered %t", final, tc.state, tc.recovered)
			}
			if !walHasFinal(t, f.jdir, f.id) {
				t.Error("Final record visible before the WAL holds the job's final entry")
			}
			if _, err := os.Stat(filepath.Join(f.jdir, "spool", f.id)); !os.IsNotExist(err) {
				t.Errorf("spool dir still there when the Final record is visible (stat: %v)", err)
			}
			before := f.srv.Statz()
			if before.Cache.Puts != f.puts {
				t.Errorf("cache.puts = %d when the Final record is visible, want %d", before.Cache.Puts, f.puts)
			}

			dequeued := f.dequeues.Load()
			want := StateCached
			if tc.rerun {
				want = StateDone
			}
			if _, state := readStream(t, f.ts, postJob(t, f.ts, f.spec)); state != want {
				t.Errorf("identical resubmission at the Final record: state %q, want %s", state, want)
			}
			after := f.srv.Statz()
			if tc.rerun {
				if after.Cache.Hits != before.Cache.Hits || after.SingleFlightJoins != before.SingleFlightJoins ||
					f.dequeues.Load() == dequeued {
					t.Errorf("resubmission after a degraded leader did not execute afresh: hits %d -> %d, joins %d -> %d, %d pool tasks",
						before.Cache.Hits, after.Cache.Hits, before.SingleFlightJoins, after.SingleFlightJoins, f.dequeues.Load()-dequeued)
				}
				return
			}
			if after.Cache.Hits != before.Cache.Hits+1 || after.SingleFlightJoins != before.SingleFlightJoins {
				t.Errorf("resubmission was not a cache hit: hits %d -> %d, joins %d -> %d",
					before.Cache.Hits, after.Cache.Hits, before.SingleFlightJoins, after.SingleFlightJoins)
			}
			if got := f.dequeues.Load(); got != dequeued {
				t.Errorf("resubmission dispatched %d pool tasks, want 0", got-dequeued)
			}
		})
	}
}

// TestServiceJournalIdenticalPendingRecoverOnce: two identical jobs pending
// in the WAL at a crash execute once after the restart. The second is
// served by the first — joined, or replayed if the first was quicker —
// exactly as a fresh duplicate submission would be.
func TestServiceJournalIdenticalPendingRecoverOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1400, 61))
	spec, err := ParseJobSpec([]byte(`{"genome_dir":"` + dir + `","engine":"gsnp-cpu","window":256}`))
	if err != nil {
		t.Fatal(err)
	}
	opts := spec.Options
	base := serialBaseline(t, dir, opts)
	units, _, err := genomejob.Discover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	digests, err := genomejob.UnitDigests(units)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}

	jdir := filepath.Join(t.TempDir(), "journal")
	jn, err := journal.Open(journal.Config{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	for seq, id := range []string{"j1", "j2"} {
		if err := jn.Accept(journal.Entry{
			Seq: seq + 1, Job: id, Spec: raw,
			Fingerprint: opts.Fingerprint(), Digests: digests, Created: time.Unix(1700000000, 0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	cfg, dequeues := dequeueCounter(Config{Workers: 1, JournalDir: jdir})
	srv, ts := newTestServer(t, cfg)
	recs1, state1 := readStream(t, ts, "j1")
	recs2, state2 := readStream(t, ts, "j2")
	if state1 != StateDone || state2 != StateCached {
		t.Fatalf("final states %q/%q, want done/cached", state1, state2)
	}
	for name, want := range base {
		if !bytes.Equal(recs1[name].OutputB64, want) || !bytes.Equal(recs2[name].OutputB64, want) {
			t.Errorf("%s: recovered bytes differ from the serial run", name)
		}
	}
	if got := dequeues.Load(); got != int64(len(units)) {
		t.Errorf("%d pool dequeues for two identical recovered jobs, want one execution (%d)", got, len(units))
	}
	for _, id := range []string{"j1", "j2"} {
		if st := getStatus(t, ts, id); !st.Recovered {
			t.Errorf("job %s not marked recovered", id)
		}
	}
	st := srv.Statz()
	if st.RecoveredJobs != 2 || st.SingleFlightJoins+st.Cache.Hits != 1 {
		t.Errorf("statz %+v, want 2 recovered jobs and one join or hit", st)
	}
}

// TestServiceJournalFullRecoveryIsCached: a job recovered entirely from
// its checkpoints is a flight leader like any other, so its result enters
// the cache and an identical resubmission replays it.
func TestServiceJournalFullRecoveryIsCached(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1400, 61))
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}
	jdir := filepath.Join(t.TempDir(), "journal")

	srvA, tsA := newTestServer(t, Config{Workers: 2, JournalDir: jdir, fs: finalFails()})
	id := postJob(t, tsA, spec)
	first, state := readStream(t, tsA, id)
	if state != StateDone {
		t.Fatalf("first run state %q, want done", state)
	}
	tsA.Close()
	drainT(t, srvA)

	cfg, dequeues := dequeueCounter(Config{Workers: 2, JournalDir: jdir})
	_, tsB := newTestServer(t, cfg)
	if _, state := readStream(t, tsB, id); state != StateDone {
		t.Fatalf("recovered job state %q, want done", state)
	}
	again, state := readStream(t, tsB, postJob(t, tsB, spec))
	if state != StateCached {
		t.Errorf("resubmission after a full recovery: state %q, want cached", state)
	}
	for name, rec := range first {
		if !bytes.Equal(again[name].OutputB64, rec.OutputB64) {
			t.Errorf("%s: replayed bytes differ from the first run", name)
		}
		if again[name].Recovered {
			t.Errorf("%s: cache replay carries the recovered marker", name)
		}
	}
	if got := dequeues.Load(); got != 0 {
		t.Errorf("%d pool dequeues after the restart, want 0", got)
	}
}

// TestServiceJournalFollowerOfRecoveredLeader: a submission that joins a
// recovered job still running mirrors its chromosomes as a clean serve.
// The leader marks the chromosomes it took from its checkpoints
// "recovered"; the follower, which recovered nothing, marks none — as a
// cache hit on a recovered job's result never has.
func TestServiceJournalFollowerOfRecoveredLeader(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1400, 61))
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}
	jdir := filepath.Join(t.TempDir(), "journal")
	// j1 is left pending with chr02 and chr03 durable: chr01 recomputes
	// after the restart.
	fs := failing(anyOf(chromOf("j1", "chr01.fa"), appendOf(journal.KindFinal, "j1")))
	srvA, tsA := newTestServer(t, Config{Workers: 1, JournalDir: jdir, fs: fs})
	if _, state := readStream(t, tsA, postJob(t, tsA, spec)); state != StateDone {
		t.Fatalf("first run state %q, want done", state)
	}
	tsA.Close()
	drainT(t, srvA)

	release := make(chan struct{})
	gate := sync.OnceFunc(func() { <-release })
	srv, ts := newTestServer(t, Config{Workers: 1, JournalDir: jdir,
		OnDequeue: func(job string, _ int) {
			if job == "j1" { // the recovered leader waits for its follower
				gate()
			}
		}})
	follower := postJob(t, ts, spec)
	close(release)
	if joins := srv.Statz().SingleFlightJoins; joins != 1 {
		t.Fatalf("%d single-flight joins, want the follower's", joins)
	}
	leaderRecs, leaderState := readStream(t, ts, "j1")
	recs, state := readStream(t, ts, follower)
	if leaderState != StateDone || state != StateCached {
		t.Fatalf("final states %q/%q, want done/cached", leaderState, state)
	}
	recovered := 0
	for name, rec := range leaderRecs {
		if rec.Recovered {
			recovered++
		}
		if !bytes.Equal(recs[name].OutputB64, rec.OutputB64) {
			t.Errorf("%s: the follower's bytes differ from the leader's", name)
		}
		if recs[name].Recovered {
			t.Errorf("%s: the follower mirrors the leader's recovered marker", name)
		}
	}
	if recovered != 2 {
		t.Errorf("the leader served %d chromosomes from checkpoints, want 2", recovered)
	}
}

// TestServiceDrainLeavesNoGoroutines: once Drain has returned, nothing the
// service or its pool started is still running — every job goroutine ends
// in finish, whatever its sources were (pooled, replayed, tailed, tailed
// and cancelled).
func TestServiceDrainLeavesNoGoroutines(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir, dirLong := t.TempDir(), t.TempDir()
	writeGenomeDir(t, dir, testSpecs(2, 1300, 71))
	writeGenomeDir(t, dirLong, testSpecs(6, 4000, 47))
	srv, ts := newTestServer(t, Config{Workers: 2})
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}
	specLong := map[string]any{"genome_dir": dirLong, "engine": "gsnp-cpu", "window": 256}

	readStream(t, ts, postJob(t, ts, spec)) // pooled
	readStream(t, ts, postJob(t, ts, spec)) // replayed
	leader := postJob(t, ts, specLong)
	follower, quitter := postJob(t, ts, specLong), postJob(t, ts, specLong) // tailed
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+quitter, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	for _, id := range []string{leader, follower, quitter} {
		readStream(t, ts, id)
	}
	ts.Close()
	drainT(t, srv)

	// A job's goroutine closes done — which is what Drain waits for — a few
	// statements before it returns, so poll.
	var left []string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		left = left[:0]
		for _, g := range strings.Split(string(buf), "\n\n") {
			if strings.Contains(g, "TestServiceDrainLeavesNoGoroutines") {
				continue // this test
			}
			if strings.Contains(g, "gsnp/internal/service.") || strings.Contains(g, "gsnp/internal/sched.") {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(left) > 0 {
		t.Errorf("%d goroutine(s) of the service or its pool outlive Drain:\n%s", len(left), strings.Join(left, "\n\n"))
	}
}

// TestServiceSpoolFailure: a spool write failure is the server's fault, not
// the request's — 500, nothing journaled, nothing registered — and the
// server keeps serving. The spool directory is replaced by a regular file,
// which fails every write under it even for root.
func TestServiceSpoolFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(1, 1200, 29))
	jdir := filepath.Join(t.TempDir(), "journal")
	srv, ts := newTestServer(t, Config{Workers: 1, JournalDir: jdir})
	spool := filepath.Join(jdir, "spool")
	if err := os.RemoveAll(spool); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(spool, []byte("not a directory\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(uploadSpec(t, dir, "chr01"))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), ErrSpool.Error()) {
		t.Fatalf("upload with an unwritable spool: %d %s, want 500 naming the spool", resp.StatusCode, data)
	}
	if st := srv.Statz(); st.Jobs != 0 {
		t.Errorf("refused upload left %d job(s) registered", st.Jobs)
	}

	id := postJob(t, ts, map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256})
	if _, state := readStream(t, ts, id); state != StateDone {
		t.Fatalf("genome-dir job after the spool failure: %q, want done", state)
	}
	wal, err := os.ReadFile(filepath.Join(jdir, journal.WALName))
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(wal, []byte("\n")); n != 3 || !walHasFinal(t, jdir, id) {
		t.Errorf("WAL holds %d records, want the later job's accepted, chrom and final only:\n%s", n, wal)
	}
}

// stalledWriter is a subscriber that stopped reading: its write deadline is
// recorded, and every write fails as one past its deadline does.
type stalledWriter struct {
	header   http.Header
	deadline time.Time
}

func (w *stalledWriter) Header() http.Header                { return w.header }
func (w *stalledWriter) WriteHeader(int)                    {}
func (w *stalledWriter) SetWriteDeadline(d time.Time) error { w.deadline = d; return nil }
func (w *stalledWriter) Write([]byte) (int, error)          { return 0, os.ErrDeadlineExceeded }

// TestServiceStreamSubscriberShed: handleStream bounds each batch's write,
// a subscriber whose write times out releases its handler, and the job
// runs on to done regardless.
func TestServiceStreamSubscriberShed(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1500, 11))
	srv, ts := newTestServer(t, Config{Workers: 1})
	id := postJob(t, ts, map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256})

	w := &stalledWriter{header: make(http.Header)}
	start := time.Now()
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/jobs/"+id+"/stream", nil))
	}()
	select {
	case <-returned:
	case <-time.After(time.Minute):
		t.Fatal("handleStream did not return after its subscriber's write timed out")
	}
	if w.deadline.Before(start) || w.deadline.After(time.Now().Add(streamWriteTimeout)) {
		t.Errorf("write deadline %v, want within %v of the batch", w.deadline, streamWriteTimeout)
	}
	if _, state := readStream(t, ts, id); state != StateDone {
		t.Fatalf("job state %q after its subscriber was shed, want done", state)
	}
}
