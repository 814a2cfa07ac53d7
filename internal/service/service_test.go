package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gsnp/internal/bayes"
	"gsnp/internal/genomejob"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

// writeGenomeDir materialises synthetic chromosomes as a genome directory
// (the <chr>.fa/<chr>.soap/<chr>.snp production layout), mirroring
// cmd/gsnp-gen.
func writeGenomeDir(t testing.TB, dir string, specs []seqsim.ChromosomeSpec) {
	t.Helper()
	for _, spec := range specs {
		ds := seqsim.BuildDataset(spec)
		write := func(name string, fn func(f *os.File) error) {
			f, err := os.Create(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if err := fn(f); err != nil {
				f.Close()
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
		}
		write(spec.Name+".fa", func(f *os.File) error {
			return snpio.WriteFASTA(f, snpio.FASTARecord{Name: spec.Name, Seq: ds.Ref.Seq})
		})
		write(spec.Name+".soap", func(f *os.File) error {
			return snpio.WriteSOAP(f, spec.Name, ds.Reads)
		})
		known := snpio.KnownSNPs{}
		for _, v := range ds.Diploid.Variants {
			if !v.Known {
				continue
			}
			a1, a2 := v.Genotype.Alleles()
			rec := &bayes.KnownSNP{Validated: true}
			rec.Freq[a1] += 0.5
			rec.Freq[a2] += 0.5
			known[v.Pos] = rec
		}
		write(spec.Name+".snp", func(f *os.File) error {
			return snpio.WriteKnownSNPs(f, spec.Name, known)
		})
	}
}

// testSpecs builds nChrom small chromosomes with distinct sizes/seeds.
func testSpecs(nChrom, baseSites int, seed int64) []seqsim.ChromosomeSpec {
	specs := make([]seqsim.ChromosomeSpec, nChrom)
	for i := range specs {
		specs[i] = seqsim.ChromosomeSpec{
			Name:         fmt.Sprintf("chr%02d", i+1),
			Length:       baseSites + 251*i,
			Depth:        8,
			MaskFraction: 0.1,
			Seed:         seed + int64(i),
		}
	}
	return specs
}

// serialBaseline runs every unit of a genome dir on a fresh genomejob.Worker
// serially — the byte-identity reference the service must reproduce at
// any worker count.
func serialBaseline(t testing.TB, dir string, opts genomejob.Options) map[string][]byte {
	t.Helper()
	units, _, err := genomejob.Discover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(units))
	for _, u := range units {
		var buf bytes.Buffer
		if _, err := new(genomejob.Worker).Call(context.Background(), opts, u, &buf, io.Discard); err != nil {
			t.Fatalf("serial baseline %s: %v", u.Name, err)
		}
		out[u.Name] = buf.Bytes()
	}
	return out
}

// postJob submits a job spec and returns its id.
func postJob(t testing.TB, ts *httptest.Server, spec map[string]any) string {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, data)
	}
	var st JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Total == 0 {
		t.Fatalf("job status missing id/total: %s", data)
	}
	return st.ID
}

// readStream consumes /jobs/{id}/stream to the final record, returning
// per-chromosome records by name plus the final job state.
func readStream(t testing.TB, ts *httptest.Server, id string) (map[string]StreamRecord, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET stream: %d", resp.StatusCode)
	}
	recs := make(map[string]StreamRecord)
	dec := json.NewDecoder(resp.Body)
	for {
		var rec StreamRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("stream %s ended without a final record: %v", id, err)
		}
		if rec.Final {
			return recs, rec.State
		}
		if rec.Job != id {
			t.Fatalf("stream %s delivered record for job %s", id, rec.Job)
		}
		recs[rec.Name] = rec
	}
}

func getStatus(t testing.TB, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	cfg.SpoolDir = filepath.Join(t.TempDir(), "spool")
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return srv, ts
}

// TestServiceEndToEndByteIdentity is the acceptance scenario: two
// concurrently submitted jobs over genome directories must stream
// per-chromosome outputs byte-identical to serial runs, at worker counts
// 1 and 4.
func TestServiceEndToEndByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	opts := genomejob.Options{Engine: "gsnp-cpu", Format: "soap", Window: 256}
	dirA, dirB := t.TempDir(), t.TempDir()
	writeGenomeDir(t, dirA, testSpecs(6, 1500, 41))
	writeGenomeDir(t, dirB, testSpecs(2, 1200, 97))
	baseA := serialBaseline(t, dirA, opts)
	baseB := serialBaseline(t, dirB, opts)

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			_, ts := newTestServer(t, Config{Workers: workers})

			// Overlapping submissions: B is enqueued while A is running.
			idA := postJob(t, ts, map[string]any{"genome_dir": dirA, "engine": "gsnp-cpu", "window": 256})
			idB := postJob(t, ts, map[string]any{"genome_dir": dirB, "engine": "gsnp-cpu", "window": 256})

			var wg sync.WaitGroup
			streams := make([]map[string]StreamRecord, 2)
			states := make([]string, 2)
			for i, id := range []string{idA, idB} {
				wg.Add(1)
				go func(i int, id string) {
					defer wg.Done()
					streams[i], states[i] = readStream(t, ts, id)
				}(i, id)
			}
			wg.Wait()

			for i, base := range []map[string][]byte{baseA, baseB} {
				if states[i] != StateDone {
					t.Fatalf("job %d final state %q, want done", i, states[i])
				}
				if len(streams[i]) != len(base) {
					t.Fatalf("job %d streamed %d chromosomes, want %d", i, len(streams[i]), len(base))
				}
				for name, want := range base {
					rec, ok := streams[i][name]
					if !ok {
						t.Fatalf("job %d: no stream record for %s", i, name)
					}
					if rec.State != StateOK {
						t.Fatalf("job %d %s: state %q (%s)", i, name, rec.State, rec.Error)
					}
					if !bytes.Equal(rec.OutputB64, want) {
						t.Errorf("job %d %s: streamed bytes differ from serial run", i, name)
					}
				}
			}

			// Status endpoint agrees once the stream is done.
			st := getStatus(t, ts, idA)
			if st.State != StateDone || st.Completed != st.Total {
				t.Errorf("job A status %q %d/%d, want done", st.State, st.Completed, st.Total)
			}
		})
	}
}

// TestServiceCancelIsolation: cancelling one job never perturbs a
// concurrent job's bytes. A long job is cancelled mid-flight; the small
// job must still stream byte-identical results and finish done.
func TestServiceCancelIsolation(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	opts := genomejob.Options{Engine: "gsnp-cpu", Format: "soap", Window: 256}
	dirLong, dirSmall := t.TempDir(), t.TempDir()
	// The long job must still be mid-flight when the DELETE lands (the
	// test asserts at least one chromosome resolves cancelled), so make
	// it comfortably longer than the submit+cancel round trips.
	writeGenomeDir(t, dirLong, testSpecs(16, 5000, 7))
	writeGenomeDir(t, dirSmall, testSpecs(1, 1500, 301))
	baseSmall := serialBaseline(t, dirSmall, opts)

	_, ts := newTestServer(t, Config{Workers: 1})
	idLong := postJob(t, ts, map[string]any{"genome_dir": dirLong, "engine": "gsnp-cpu", "window": 256})

	// Wait for the long job's first chromosome to complete, then submit
	// the small job and cancel the long one.
	resp, err := http.Get(ts.URL + "/jobs/" + idLong + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(resp.Body)
	var first StreamRecord
	if err := dec.Decode(&first); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	idSmall := postJob(t, ts, map[string]any{"genome_dir": dirSmall, "engine": "gsnp-cpu", "window": 256})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+idLong, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE: %d", dresp.StatusCode)
	}

	// The small job's bytes are unaffected by the sibling cancellation.
	recs, state := readStream(t, ts, idSmall)
	if state != StateDone {
		t.Fatalf("small job state %q, want done", state)
	}
	for name, want := range baseSmall {
		if !bytes.Equal(recs[name].OutputB64, want) {
			t.Errorf("%s: small job bytes perturbed by sibling cancel", name)
		}
	}

	// The long job resolves as cancelled with skipped chromosomes.
	recsLong, stateLong := readStream(t, ts, idLong)
	if stateLong != StateCancelled {
		t.Fatalf("long job state %q, want cancelled", stateLong)
	}
	var cancelledN int
	for _, r := range recsLong {
		if r.State == StateCancelled {
			cancelledN++
		}
	}
	if cancelledN == 0 {
		t.Error("no chromosome reported cancelled on the long job")
	}
	// Completed chromosomes that did stream are still byte-correct.
	baseLong := serialBaseline(t, dirLong, opts)
	for name, r := range recsLong {
		if r.State == StateOK && !bytes.Equal(r.OutputB64, baseLong[name]) {
			t.Errorf("%s: completed-before-cancel bytes differ from serial run", name)
		}
	}
}

// TestServiceUploadedInputs exercises the inline ref/aln upload path: the
// spooled job must produce the same bytes as a direct run over the same
// data.
func TestServiceUploadedInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	opts := genomejob.Options{Engine: "gsnp-cpu", Format: "soap", Window: 256}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(2, 1400, 55))
	base := serialBaseline(t, dir, opts)

	var inputs []map[string]any
	for _, name := range []string{"chr01", "chr02"} {
		ref, err := os.ReadFile(filepath.Join(dir, name+".fa"))
		if err != nil {
			t.Fatal(err)
		}
		aln, err := os.ReadFile(filepath.Join(dir, name+".soap"))
		if err != nil {
			t.Fatal(err)
		}
		snp, err := os.ReadFile(filepath.Join(dir, name+".snp"))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, map[string]any{
			"name": name, "ref": string(ref), "aln": string(aln), "snp": string(snp),
		})
	}
	srv, ts := newTestServer(t, Config{Workers: 2})
	id := postJob(t, ts, map[string]any{"inputs": inputs, "engine": "gsnp-cpu", "window": 256})
	recs, state := readStream(t, ts, id)
	if state != StateDone {
		t.Fatalf("uploaded job state %q, want done", state)
	}
	for name, want := range base {
		rec := recs[name]
		if !bytes.Equal(rec.OutputB64, want) {
			t.Errorf("%s: uploaded-input bytes differ from direct run", name)
		}
	}
	// The spool directory is cleaned up once the job finishes.
	entries, err := os.ReadDir(srv.spool)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("spool dir not cleaned after job: %v", entries)
	}
}

// TestServiceDrain: draining finishes active jobs, rejects new ones with
// 503, and Drain returns only when everything has resolved.
func TestServiceDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dir := t.TempDir()
	writeGenomeDir(t, dir, testSpecs(3, 1500, 11))

	srv, ts := newTestServer(t, Config{Workers: 1})
	id := postJob(t, ts, map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain(ctx) }()

	// New submissions are rejected while draining. Drain may still be
	// snapshotting, so poll briefly for the flag to take effect.
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, _ := json.Marshal(map[string]any{"genome_dir": dir})
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Error("503 draining response missing Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission during drain: %d %s, want 503", resp.StatusCode, data)
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// The active job finished rather than being cancelled.
	st := getStatus(t, ts, id)
	if st.State != StateDone {
		t.Fatalf("job state after drain %q, want done", st.State)
	}
}

// TestServiceBadSpecs: malformed submissions fail with 400 and never
// create a job.
func TestServiceBadSpecs(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for _, body := range []string{
		``,
		`{`,
		`{"engine":"gsnp-cpu"}`, // neither genome_dir nor inputs
		`{"genome_dir":"/x","inputs":[{"name":"a"}]}`, // both
		`{"genome_dir":"/x","engine":"warp"}`,         // unknown engine
		`{"genome_dir":"/x","unknown_field":1}`,       // unknown field
		`{"genome_dir":"/x","Stats":true}`,            // CLI-only options
		`{"genome_dir":"/x","AlignWorkers":2}`,
		`{"genome_dir":"/x","injector":{}}`,
		`{"inputs":[{"name":"../evil","ref":"r","aln":"a"}]}`, // path escape
		`{"inputs":[{"name":"a","ref":"r"}]}`,                 // missing aln
		`{"genome_dir":"/x"}{"genome_dir":"/y"}`,              // trailing data
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/j999")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET unknown job: %d, want 404", resp.StatusCode)
	}
}

// failingBody yields a few bytes of a spec, then fails, as the body of a
// client that disconnects mid-upload does.
type failingBody struct{ sent bool }

func (b *failingBody) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, `{"genome_dir":"/x",`), nil
	}
	return 0, errors.New("connection reset by peer")
}

// TestServiceSubmitBodyReadError: a body that fails before the size limit
// is a bad request (400), not one too large (413), and creates no job.
func TestServiceSubmitBodyReadError(t *testing.T) {
	srv, _ := newTestServer(t, Config{Workers: 1})
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", &failingBody{}))
	if w.Code != http.StatusBadRequest {
		t.Errorf("status %d, want 400: %s", w.Code, w.Body.Bytes())
	}
	if n := srv.Statz().Jobs; n != 0 {
		t.Errorf("%d jobs registered, want 0", n)
	}
}

// TestServiceFairnessDequeueOrder drives the scheduler's task-order hook
// through the service layer: with one worker and a long job queued first,
// a later small job is dispatched before the long job drains.
func TestServiceFairnessDequeueOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	dirLong, dirSmall := t.TempDir(), t.TempDir()
	writeGenomeDir(t, dirLong, testSpecs(8, 1500, 23))
	writeGenomeDir(t, dirSmall, testSpecs(1, 1200, 77))

	var mu sync.Mutex
	var order []string
	_, ts := newTestServer(t, Config{
		Workers: 1,
		OnDequeue: func(job string, idx int) {
			mu.Lock()
			order = append(order, fmt.Sprintf("%s:%d", job, idx))
			mu.Unlock()
		},
	})

	idLong := postJob(t, ts, map[string]any{"genome_dir": dirLong, "engine": "gsnp-cpu", "window": 256})
	idSmall := postJob(t, ts, map[string]any{"genome_dir": dirSmall, "engine": "gsnp-cpu", "window": 256})
	readStream(t, ts, idSmall)
	readStream(t, ts, idLong)

	mu.Lock()
	defer mu.Unlock()
	smallAt := -1
	longSeen := 0
	for i, ev := range order {
		if strings.HasPrefix(ev, idSmall+":") {
			smallAt = i
			break
		}
		longSeen++
	}
	if smallAt == -1 {
		t.Fatalf("small job never dispatched: %v", order)
	}
	if longSeen >= 8 {
		t.Fatalf("small job dispatched only after the long job drained: %v", order)
	}
}
