package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsnp/internal/genomejob"
	"gsnp/internal/journal"
)

// finalFails is a seam that fails the append of job j1's final record: the
// job completes normally in-process but stays pending in the WAL with its
// spool and stored chromosomes intact — exactly the on-disk state a crash
// mid-job leaves behind, reachable without kill -9.
func finalFails() *scriptFS { return failing(appendOf(journal.KindFinal, "j1")) }

// storedPath is where a server on root keeps the result whose raw bytes
// are raw: the store file named by the sha256 of their base64 text.
func storedPath(root string, raw []byte) string {
	sum := sha256.Sum256([]byte(base64.StdEncoding.EncodeToString(raw)))
	return filepath.Join(root, "store", hex.EncodeToString(sum[:]))
}

// drainT drains a server within a test-scoped deadline.
func drainT(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServiceJournalRecovery is the in-process half of the crash-recovery
// acceptance scenario: a journaled job whose terminal record never landed
// is re-enqueued on the next startup, chromosomes with valid checkpoints
// replay without re-executing (zero pool dispatches for them), a
// tampered checkpoint output is recomputed, and the recovered stream is
// byte-identical to an uninterrupted run.
func TestServiceJournalRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	opts := genomejob.Options{Engine: "gsnp-cpu", Format: "soap", Window: 256}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1400, 61))
	base := serialBaseline(t, dir, opts)
	jdir := filepath.Join(t.TempDir(), "journal")

	// First incarnation: the Final append is faulted, so the completed job
	// remains pending in the WAL with its stored chromosomes kept.
	srvA, tsA := newTestServer(t, Config{Workers: 2, JournalDir: jdir, fs: finalFails()})
	id := postJob(t, tsA, map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256})
	if _, state := readStream(t, tsA, id); state != StateDone {
		t.Fatalf("first run state %q, want done", state)
	}
	tsA.Close()
	drainT(t, srvA)

	if _, err := os.Stat(storedPath(jdir, base["chr01.fa"])); err != nil {
		t.Fatalf("checkpointed output missing after faulted Final: %v", err)
	}
	// Tamper one checkpointed output: recovery must detect the digest
	// mismatch and recompute that chromosome rather than serve bad bytes.
	if err := os.WriteFile(storedPath(jdir, base["chr02.fa"]), []byte("tampered\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Second incarnation: same journal dir, no faults.
	var dispatches atomic.Int64
	srvB, tsB := newTestServer(t, Config{
		Workers: 2, JournalDir: jdir,
		OnDequeue: func(string, int) { dispatches.Add(1) },
	})
	if st := srvB.Statz(); st.RecoveredJobs != 1 {
		t.Fatalf("statz after recovery: recovered=%d, want 1", st.RecoveredJobs)
	}
	recs, state := readStream(t, tsB, id)
	if state != StateDone {
		t.Fatalf("recovered job state %q, want done", state)
	}
	for name, want := range base {
		rec, ok := recs[name]
		if !ok {
			t.Fatalf("recovered stream missing %s", name)
		}
		if !bytes.Equal(rec.OutputB64, want) {
			t.Errorf("%s: recovered bytes differ from uninterrupted run", name)
		}
	}
	// chr01/chr03 replayed from checkpoints; only tampered chr02 re-ran.
	if !recs["chr01.fa"].Recovered || !recs["chr03.fa"].Recovered {
		t.Errorf("checkpointed chromosomes not marked recovered: %+v %+v", recs["chr01.fa"], recs["chr03.fa"])
	}
	if recs["chr02.fa"].Recovered {
		t.Error("tampered chromosome served from checkpoint instead of recomputing")
	}
	if n := dispatches.Load(); n != 1 {
		t.Errorf("pool dispatched %d tasks during recovery, want 1 (only the tampered chromosome)", n)
	}
	st := getStatus(t, tsB, id)
	if !st.Recovered {
		t.Error("recovered job not marked in its status document")
	}
	tsB.Close()
	drainT(t, srvB)

	// The recovered job finalized durably this time: a third incarnation
	// has nothing to recover, and sweeps its stored chromosomes.
	srvC, _ := newTestServer(t, Config{Workers: 1, JournalDir: jdir})
	if st := srvC.Statz(); st.RecoveredJobs != 0 || st.Store.Files != 0 {
		t.Fatalf("third open recovered %d jobs and kept %d stored files, want 0 and 0", st.RecoveredJobs, st.Store.Files)
	}
	if ents, err := os.ReadDir(filepath.Join(jdir, "store")); err != nil || len(ents) != 0 {
		t.Errorf("store holds %d files (%v) after a durable finalize and a restart", len(ents), err)
	}
}

// TestServiceJournalUploadedRecovery: uploaded inputs live in the
// journal-owned spool and survive a restart; a tampered spool file fails
// the recovered job cleanly (digest mismatch) while the server keeps
// serving fresh jobs.
func TestServiceJournalUploadedRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	opts := genomejob.Options{Engine: "gsnp-cpu", Format: "soap", Window: 256}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(2, 1200, 83))
	base := serialBaseline(t, dir, opts)

	var inputs []map[string]any
	for _, name := range []string{"chr01", "chr02"} {
		ref, _ := os.ReadFile(filepath.Join(dir, name+".fa"))
		aln, _ := os.ReadFile(filepath.Join(dir, name+".soap"))
		snp, _ := os.ReadFile(filepath.Join(dir, name+".snp"))
		inputs = append(inputs, map[string]any{
			"name": name, "ref": string(ref), "aln": string(aln), "snp": string(snp),
		})
	}

	run := func(t *testing.T, tamper bool) {
		jdir := filepath.Join(t.TempDir(), "journal")
		srvA, tsA := newTestServer(t, Config{Workers: 2, JournalDir: jdir, fs: finalFails()})
		id := postJob(t, tsA, map[string]any{"inputs": inputs, "engine": "gsnp-cpu", "window": 256})
		if _, state := readStream(t, tsA, id); state != StateDone {
			t.Fatalf("first run state %q, want done", state)
		}
		tsA.Close()
		drainT(t, srvA)

		spooled := filepath.Join(jdir, "spool", id, "chr01.soap")
		if _, err := os.Stat(spooled); err != nil {
			t.Fatalf("spooled upload did not survive the restart boundary: %v", err)
		}
		if tamper {
			if err := os.WriteFile(spooled, []byte("not an alignment\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}

		srvB, tsB := newTestServer(t, Config{Workers: 2, JournalDir: jdir})
		recs, state := readStream(t, tsB, id)
		if tamper {
			if state != StateFailed {
				t.Fatalf("tampered-spool recovery state %q, want failed", state)
			}
			// The server is healthy: a fresh job still executes.
			id2 := postJob(t, tsB, map[string]any{"inputs": inputs, "engine": "gsnp-cpu", "window": 256})
			if _, state2 := readStream(t, tsB, id2); state2 != StateDone {
				t.Fatalf("fresh job after failed recovery: %q, want done", state2)
			}
		} else {
			if state != StateDone {
				t.Fatalf("recovered upload job state %q, want done", state)
			}
			for name, want := range base {
				if !bytes.Equal(recs[name].OutputB64, want) {
					t.Errorf("%s: recovered upload bytes differ", name)
				}
			}
		}
		tsB.Close()
		drainT(t, srvB)
	}
	t.Run("intact", func(t *testing.T) { run(t, false) })
	t.Run("tampered", func(t *testing.T) { run(t, true) })
}

// TestServiceJournalAppendFault: a failed append of the accepted record
// fails that one submission with ErrJournal (HTTP 500), nothing is
// journaled for it, and the server keeps accepting and completing later
// jobs, draining cleanly.
func TestServiceJournalAppendFault(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(1, 1200, 29))
	jdir := filepath.Join(t.TempDir(), "journal")

	fs := failing(appendOf(journal.KindAccepted, "j1"))
	srv, ts := newTestServer(t, Config{Workers: 1, JournalDir: jdir, fs: fs})

	body, _ := json.Marshal(map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("faulted submission: %d %s, want 500", resp.StatusCode, data)
	}
	if !strings.Contains(string(data), "journal") {
		t.Fatalf("error body does not name the journal: %s", data)
	}

	// The very next submission succeeds and completes.
	id := postJob(t, ts, map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256})
	if _, state := readStream(t, ts, id); state != StateDone {
		t.Fatalf("job after faulted append: %q, want done", state)
	}
	ts.Close()
	drainT(t, srv)

	// Nothing pending: the faulted job was never durably accepted, the
	// successful one finalized.
	srv2, _ := newTestServer(t, Config{Workers: 1, JournalDir: jdir})
	if st := srv2.Statz(); st.RecoveredJobs != 0 {
		t.Fatalf("recovered %d jobs after clean shutdown, want 0", st.RecoveredJobs)
	}
}

// TestServiceMaxQueued: with the admission bound hit, submissions get 429
// + Retry-After; capacity freed by a finished job re-admits.
func TestServiceMaxQueued(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dirLong, dirSmall := t.TempDir(), t.TempDir()
	writeGenomeDir(t, dirLong, testSpecs(6, 5000, 17))
	writeGenomeDir(t, dirSmall, testSpecs(1, 1200, 53))

	_, ts := newTestServer(t, Config{Workers: 1, MaxQueued: 1})
	idLong := postJob(t, ts, map[string]any{"genome_dir": dirLong, "engine": "gsnp-cpu", "window": 256})

	body, _ := json.Marshal(map[string]any{"genome_dir": dirSmall, "engine": "gsnp-cpu", "window": 256})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound submission: %d %s, want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}

	// Cancel the long job; once it finalizes the bound frees up.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+idLong, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	readStream(t, ts, idLong) // wait for the cancel to finalize

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bound never freed after cancel: last status %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServiceJournalConcurrentSubmissions: many concurrent journaled
// submissions all land durably and resolve; the WAL ends the session with
// nothing pending. Each job has its own inputs, so every one executes.
func TestServiceJournalConcurrentSubmissions(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	const jobs = 6
	var dirs [jobs]string
	for i := range dirs {
		dirs[i] = t.TempDir()
		writeGenomeDir(t, dirs[i], testSpecs(1, 1200, int64(97+i)))
	}
	jdir := filepath.Join(t.TempDir(), "journal")

	srv, ts := newTestServer(t, Config{Workers: 2, JournalDir: jdir})
	var wg sync.WaitGroup
	for _, dir := range dirs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := postJob(t, ts, map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256})
			if _, state := readStream(t, ts, id); state != StateDone {
				t.Errorf("job %s: %q, want done", id, state)
			}
		}()
	}
	wg.Wait()
	ts.Close()
	drainT(t, srv)

	srv2, _ := newTestServer(t, Config{Workers: 1, JournalDir: jdir})
	if st := srv2.Statz(); st.RecoveredJobs != 0 {
		t.Fatalf("recovered %d jobs after clean concurrent session, want 0", st.RecoveredJobs)
	}
}

// TestServiceJournalChromFault: a failed write of one chromosome's output
// costs only that chromosome's durability. With chr01's chrom record and
// the job's final append failing, the job ends done in-process and stays
// pending with only chr02 and chr03 named; chr01's stored file serves the
// first process's clients but is no one's after a restart, whose sweep
// removes it, and only chr01 recomputes.
func TestServiceJournalChromFault(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	opts := genomejob.Options{Engine: "gsnp-cpu", Format: "soap", Window: 256}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1400, 61))
	base := serialBaseline(t, dir, opts)
	jdir := filepath.Join(t.TempDir(), "journal")
	spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}

	fs := failing(anyOf(chromOf("j1", "chr01.fa"), appendOf(journal.KindFinal, "j1")))
	srvA, tsA := newTestServer(t, Config{Workers: 1, JournalDir: jdir, fs: fs})
	id := postJob(t, tsA, spec)
	if recs, state := readStream(t, tsA, id); state != StateDone || !bytes.Equal(recs["chr01.fa"].OutputB64, base["chr01.fa"]) {
		t.Fatalf("first run state %q, want done with chr01's bytes", state)
	}
	tsA.Close()
	drainT(t, srvA)

	jn, err := journal.Open(journal.Config{Dir: jdir})
	if err != nil {
		t.Fatal(err)
	}
	var named []string
	for name, c := range jn.Pending()[0].Chroms {
		if c.SHA256 != filepath.Base(storedPath(jdir, base[name])) {
			t.Errorf("%s: chrom record names %s, not its stored text", name, c.SHA256)
		}
		named = append(named, name)
	}
	jn.Close()
	if slices.Sort(named); strings.Join(named, " ") != "chr02.fa chr03.fa" {
		t.Fatalf("the WAL names %v, want only the durable chr02.fa chr03.fa", named)
	}

	var dispatches atomic.Int64
	_, tsB := newTestServer(t, Config{
		Workers: 1, JournalDir: jdir,
		OnDequeue: func(string, int) { dispatches.Add(1) },
	})
	recs, state := readStream(t, tsB, id)
	if state != StateDone {
		t.Fatalf("recovered job state %q, want done", state)
	}
	for name, want := range base {
		if !bytes.Equal(recs[name].OutputB64, want) {
			t.Errorf("%s: recovered bytes differ from the uninterrupted run", name)
		}
		if wantRecovered := name != "chr01.fa"; recs[name].Recovered != wantRecovered {
			t.Errorf("%s: recovered = %t, want %t", name, recs[name].Recovered, wantRecovered)
		}
	}
	if n := dispatches.Load(); n != 1 {
		t.Errorf("pool dispatched %d tasks after the restart, want 1 (the chromosome whose persist failed)", n)
	}
}

// TestServiceJournalRefusesWhileDraining: a draining server refuses a
// submission before it spools, hashes or journals it — 503, no WAL record,
// no spool dir — and a submission that races the journal's close is
// refused the same way, not with a 500.
func TestServiceJournalRefusesWhileDraining(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(1, 1200, 29))
	post := func(t *testing.T, ts *httptest.Server) {
		t.Helper()
		body, _ := json.Marshal(uploadSpec(t, dir, "chr01"))
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
			t.Fatalf("submission: %d %s, want 503 with Retry-After", resp.StatusCode, data)
		}
	}

	t.Run("draining", func(t *testing.T) {
		jdir := filepath.Join(t.TempDir(), "journal")
		srv, ts := newTestServer(t, Config{Workers: 1, JournalDir: jdir})
		srv.mu.Lock()
		srv.draining = true
		srv.mu.Unlock()
		post(t, ts)
		if wal, err := os.ReadFile(filepath.Join(jdir, journal.WALName)); err != nil || len(wal) != 0 {
			t.Errorf("WAL after a refused submission: %q (%v), want empty", wal, err)
		}
		if ents, err := os.ReadDir(filepath.Join(jdir, "spool")); err != nil || len(ents) != 0 {
			t.Errorf("spool after a refused submission: %d entries (%v), want none", len(ents), err)
		}
	})
	t.Run("journal closed", func(t *testing.T) {
		srv, ts := newTestServer(t, Config{Workers: 1, JournalDir: filepath.Join(t.TempDir(), "journal")})
		if err := srv.journal.Close(); err != nil {
			t.Fatal(err)
		}
		post(t, ts)
	})
}

// preChangeAccepted is an accepted record as gsnpd journaled it while the
// job spec still had a "prefetch" option: the first line of
// testdata/wire/wal.ndjson at that time, byte for byte.
const preChangeAccepted = `{"v":2,"kind":"accepted","seq":7,"job":"j7","spec":{"genome_dir":"/data/genome","engine":"gsnp-gpu","format":"fastq","window":4096,"compute_workers":3,"prefetch":true,"compress":true,"quarantine":true,"output_format":"vcf","align_max_mismatch":3,"align_seed_len":20},"fingerprint":"v1 engine=gsnp-gpu format=fastq window=4096 compress=true quarantine=true output=vcf align-mm=3 align-k=20","digests":["d1","d2"],"created":"2011-09-13T08:30:15Z"}`

// TestServiceJournalRecoversPreChangeSpec: a WAL written while job specs
// carried "prefetch" stays recoverable. Submissions refuse the field as
// unknown, but recovery decodes the journaled spec leniently, validates it
// and recomputes the journaled fingerprint, which never included it.
func TestServiceJournalRecoversPreChangeSpec(t *testing.T) {
	t.Run("golden record", func(t *testing.T) {
		jdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(jdir, journal.WALName), []byte(preChangeAccepted+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		jn, err := journal.Open(journal.Config{Dir: jdir})
		if err != nil {
			t.Fatal(err)
		}
		defer jn.Close()
		pending := jn.Pending()
		if len(pending) != 1 || pending[0].Job != "j7" {
			t.Fatalf("replay of the pre-change WAL: %+v, want pending j7", pending)
		}
		e := pending[0]
		// Decoded as recoverJob decodes it.
		var spec JobSpec
		if err := json.Unmarshal(e.Spec, &spec); err != nil {
			t.Fatalf("journaled spec: %v", err)
		}
		if got := spec.Fingerprint(); got != e.Fingerprint {
			t.Errorf("fingerprint drift: journaled %q, recomputed %q", e.Fingerprint, got)
		}
		// The golden spec sets every field, so it pairs vcf output with
		// compress and validation refuses it; the dropped field plays no
		// part in that verdict.
		want := wireSpec()
		want.Inputs = nil
		if err, wantErr := spec.validateOptions(), want.validateOptions(); fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("validating the journaled spec: %v, the same spec without prefetch: %v", err, wantErr)
		}
		if !reflect.DeepEqual(spec, want) {
			t.Errorf("journaled spec decodes to\n%+v\nwant\n%+v", spec, want)
		}
	})

	t.Run("pending job", func(t *testing.T) {
		if testing.Short() {
			t.Skip("service e2e in -short mode")
		}
		opts := genomejob.Options{Engine: "gsnp-cpu", Format: "soap", Window: 256}
		dir := t.TempDir()
		writeGenomeDir(t, dir, testSpecs(2, 1200, 43))
		base := serialBaseline(t, dir, opts)
		units, _, err := genomejob.Discover(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		digests, err := genomejob.UnitDigests(units)
		if err != nil {
			t.Fatal(err)
		}
		spec, _ := json.Marshal(map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "format": "soap", "window": 256, "prefetch": true})
		jdir := t.TempDir()
		jn, err := journal.Open(journal.Config{Dir: jdir})
		if err != nil {
			t.Fatal(err)
		}
		if err := jn.Accept(journal.Entry{Seq: 1, Job: "j1", Spec: spec, Fingerprint: opts.Fingerprint(), Digests: digests, Created: time.Now()}); err != nil {
			t.Fatal(err)
		}
		if err := jn.Close(); err != nil {
			t.Fatal(err)
		}

		srv, ts := newTestServer(t, Config{Workers: 1, JournalDir: jdir})
		if st := srv.Statz(); st.RecoveredJobs != 1 {
			t.Fatalf("recovered %d jobs, want 1", st.RecoveredJobs)
		}
		recs, state := readStream(t, ts, "j1")
		if state != StateDone {
			t.Fatalf("recovered job state %q, want done", state)
		}
		for name, want := range base {
			if !bytes.Equal(recs[name].OutputB64, want) {
				t.Errorf("%s: recovered bytes differ from a serial run", name)
			}
		}
	})
}
