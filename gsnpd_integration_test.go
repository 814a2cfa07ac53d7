package gsnp_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// gsnpdStreamRecord mirrors service.StreamRecord for the black-box test
// (decoded from the wire, not imported, so the test pins the JSON shape).
type gsnpdStreamRecord struct {
	Job       string `json:"job"`
	Index     int    `json:"index"`
	Name      string `json:"name"`
	State     string `json:"state"`
	Sites     int    `json:"sites"`
	Error     string `json:"error"`
	OutputB64 []byte `json:"output_b64"`
	Final     bool   `json:"final"`
}

// startGsnpd launches the daemon on a kernel-assigned port and parses the
// bound address from its "listening on" line. The returned cleanup kills
// the process if it is still running.
func startGsnpd(t *testing.T, args ...string) (*exec.Cmd, string, *bytes.Buffer) {
	t.Helper()
	bin, err := buildTools()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bin, "gsnpd"),
		append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	lines := bufio.NewScanner(stdout)
	base := ""
	for lines.Scan() {
		if _, after, ok := strings.Cut(lines.Text(), "listening on "); ok {
			base = strings.TrimSpace(after)
			break
		}
	}
	if base == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("gsnpd never printed its listening line\nstderr:\n%s", stderr.String())
	}
	//gsnplint:ignore goroutinejoin pipe drain: io.Copy returns when the child exits and cmd.Wait closes the pipe
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	return cmd, base, &stderr
}

// gsnpdSubmit posts a genome-dir job and returns its id.
func gsnpdSubmit(t *testing.T, base, dir string) string {
	t.Helper()
	body := fmt.Sprintf(`{"genome_dir":%q,"engine":"gsnp-cpu","window":256}`, dir)
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, data)
	}
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &st); err != nil || st.ID == "" {
		t.Fatalf("bad job status %s: %v", data, err)
	}
	return st.ID
}

// gsnpdStream reads a job's NDJSON stream to its final record.
func gsnpdStream(t *testing.T, base, id string) (map[string][]byte, string) {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := make(map[string][]byte)
	dec := json.NewDecoder(resp.Body)
	for {
		var rec gsnpdStreamRecord
		if err := dec.Decode(&rec); err != nil {
			t.Fatalf("stream %s truncated: %v", id, err)
		}
		if rec.Final {
			return out, rec.State
		}
		if rec.State != "ok" {
			t.Fatalf("chromosome %s: state %s (%s)", rec.Name, rec.State, rec.Error)
		}
		out[rec.Name] = rec.OutputB64
	}
}

// TestGsnpdServiceEndToEnd is the binary-level acceptance scenario: a real
// gsnpd process serves two concurrently submitted whole-genome jobs whose
// streamed per-chromosome bytes must be identical to serial gsnp CLI runs,
// then drains cleanly on SIGTERM and exits 0.
func TestGsnpdServiceEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("service integration in -short mode")
	}
	// Two genome dirs; the serial gsnp CLI writes <chr>.result baselines
	// into each.
	dirA, dirB := t.TempDir(), t.TempDir()
	run(t, "gsnp-gen", "-out", dirA, "-genome", "-scale", "12", "-seed", "301")
	run(t, "gsnp-gen", "-out", dirB, "-genome", "-scale", "6", "-seed", "302")
	run(t, "gsnp", "-genome-dir", dirA, "-engine", "gsnp-cpu", "-window", "256", "-workers", "1")
	run(t, "gsnp", "-genome-dir", dirB, "-engine", "gsnp-cpu", "-window", "256", "-workers", "1")

	cmd, base, stderr := startGsnpd(t, "-workers", "4")

	// Health answers before any job exists.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	idA := gsnpdSubmit(t, base, dirA)
	idB := gsnpdSubmit(t, base, dirB)

	var wg sync.WaitGroup
	streams := make([]map[string][]byte, 2)
	states := make([]string, 2)
	for i, id := range []string{idA, idB} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			streams[i], states[i] = gsnpdStream(t, base, id)
		}(i, id)
	}
	wg.Wait()

	for i, dir := range []string{dirA, dirB} {
		if states[i] != "done" {
			t.Fatalf("job %d final state %q, want done", i, states[i])
		}
		baselines, err := filepath.Glob(filepath.Join(dir, "*.result"))
		if err != nil || len(baselines) == 0 {
			t.Fatalf("no serial baselines in %s: %v", dir, err)
		}
		if len(streams[i]) != len(baselines) {
			t.Fatalf("job %d streamed %d chromosomes, want %d", i, len(streams[i]), len(baselines))
		}
		for _, b := range baselines {
			// Stream records carry the scheduler's task name: the .fa
			// file's base name.
			name := strings.TrimSuffix(filepath.Base(b), ".result") + ".fa"
			want, err := os.ReadFile(b)
			if err != nil {
				t.Fatal(err)
			}
			got, ok := streams[i][name]
			if !ok {
				t.Fatalf("job %d: chromosome %s missing from stream", i, name)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("job %d %s: streamed bytes differ from the serial gsnp run", i, name)
			}
		}
	}

	// Graceful shutdown: SIGTERM drains and the process exits 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gsnpd exit after SIGTERM: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(time.Minute):
		cmd.Process.Kill()
		t.Fatalf("gsnpd did not exit within a minute of SIGTERM\nstderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Errorf("gsnpd stderr misses the drain confirmation:\n%s", stderr.String())
	}
}

// gsnpdStatz decodes GET /statz (wire shape pinned, not imported).
type gsnpdStatz struct {
	Cache struct {
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Puts      uint64 `json:"puts"`
		Evictions uint64 `json:"evictions"`
		Bytes     int64  `json:"bytes"`
		MaxBytes  int64  `json:"max_bytes"`
	} `json:"cache"`
	SingleFlightJoins uint64 `json:"single_flight_joins"`
}

func gsnpdGetStatz(t *testing.T, base string) gsnpdStatz {
	t.Helper()
	resp, err := http.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /statz: %d", resp.StatusCode)
	}
	var st gsnpdStatz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestGsnpdCachedResubmit is the binary-level acceptance scenario for the
// result cache: resubmitting an identical job to a real gsnpd process is
// served from the cache — final state "cached", per-chromosome bytes
// identical to the first run — and /statz accounts for the hit.
func TestGsnpdCachedResubmit(t *testing.T) {
	if testing.Short() {
		t.Skip("service integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "gsnp-gen", "-out", dir, "-genome", "-scale", "6", "-seed", "304")

	_, base, _ := startGsnpd(t, "-workers", "2")

	id1 := gsnpdSubmit(t, base, dir)
	first, state1 := gsnpdStream(t, base, id1)
	if state1 != "done" {
		t.Fatalf("first run final state %q, want done", state1)
	}
	// The cache records the result just after the final stream record is
	// published; wait for the Put before resubmitting.
	deadline := time.Now().Add(10 * time.Second)
	for gsnpdGetStatz(t, base).Cache.Puts == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("result never cached: %+v", gsnpdGetStatz(t, base))
		}
		time.Sleep(10 * time.Millisecond)
	}

	id2 := gsnpdSubmit(t, base, dir)
	second, state2 := gsnpdStream(t, base, id2)
	if state2 != "cached" {
		t.Fatalf("resubmission final state %q, want cached", state2)
	}
	if len(second) != len(first) {
		t.Fatalf("replay streamed %d chromosomes, want %d", len(second), len(first))
	}
	for name, want := range first {
		if !bytes.Equal(second[name], want) {
			t.Errorf("%s: replayed bytes differ from the first run", name)
		}
	}

	st := gsnpdGetStatz(t, base)
	if st.Cache.Hits != 1 || st.Cache.Puts != 1 {
		t.Errorf("statz after cached resubmit: %+v", st)
	}
	if st.Cache.Bytes <= 0 || st.Cache.Bytes > st.Cache.MaxBytes {
		t.Errorf("implausible cache occupancy: %+v", st)
	}
}

// TestGsnpdRejectsWhileDraining: a job submitted after SIGTERM gets 503
// while an in-flight job still completes.
func TestGsnpdRejectsWhileDraining(t *testing.T) {
	if testing.Short() {
		t.Skip("service integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "gsnp-gen", "-out", dir, "-genome", "-scale", "8", "-seed", "303")

	cmd, base, stderr := startGsnpd(t, "-workers", "1")
	id := gsnpdSubmit(t, base, dir)
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	// Once draining is visible, new submissions are refused.
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Post(base+"/jobs", "application/json",
			strings.NewReader(fmt.Sprintf(`{"genome_dir":%q}`, dir)))
		if err != nil {
			break // listener may already be down post-drain; the exit check decides
		}
		code := resp.StatusCode
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("submission during drain returned %d, want 503", code)
		}
		time.Sleep(20 * time.Millisecond)
	}

	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gsnpd exit: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(time.Minute):
		cmd.Process.Kill()
		t.Fatalf("gsnpd did not drain job %s within a minute\nstderr:\n%s", id, stderr.String())
	}
}

// gsnpdUploadBody is the body of a job that uploads every chromosome of
// the genome directory dir inline: its reference, its alignments or reads
// (the files ending in alnExt) and its known SNPs, with the gsnp-cpu engine
// at window 256 and opts on top.
func gsnpdUploadBody(t *testing.T, dir, alnExt string, opts map[string]any) []byte {
	t.Helper()
	fas, err := filepath.Glob(filepath.Join(dir, "*.fa"))
	if err != nil || len(fas) == 0 {
		t.Fatalf("no generated chromosomes: %v", err)
	}
	type inputDoc struct {
		Name string `json:"name"`
		Ref  string `json:"ref"`
		Aln  string `json:"aln"`
		SNP  string `json:"snp,omitempty"`
	}
	var inputs []inputDoc
	for _, fa := range fas {
		base := strings.TrimSuffix(fa, ".fa")
		ref, err := os.ReadFile(fa)
		if err != nil {
			t.Fatal(err)
		}
		aln, err := os.ReadFile(base + alnExt)
		if err != nil {
			t.Fatal(err)
		}
		in := inputDoc{Name: filepath.Base(base), Ref: string(ref), Aln: string(aln)}
		if snp, err := os.ReadFile(base + ".snp"); err == nil {
			in.SNP = string(snp)
		}
		inputs = append(inputs, in)
	}
	spec := map[string]any{"inputs": inputs, "engine": "gsnp-cpu", "window": 256}
	for k, v := range opts {
		spec[k] = v
	}
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestGsnpdDefaultJournalDir: a gsnpd started without -journal-dir is as
// durable as one with it — while it serves an uploaded job, its journal
// is a gsnpd-* directory under TMPDIR — and a clean exit removes that
// directory. The removed -spool and -cache-off flags are refused.
func TestGsnpdDefaultJournalDir(t *testing.T) {
	if testing.Short() {
		t.Skip("service integration in -short mode")
	}
	for _, args := range [][]string{{"-spool", t.TempDir()}, {"-cache-off"}} {
		code, _, stderr := runCode(t, "gsnpd", args...)
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+args[0]) {
			t.Errorf("gsnpd %v: exit %d, stderr %q; want exit 2 for an undefined flag", args, code, stderr)
		}
	}
	dir := t.TempDir()
	run(t, "gsnp-gen", "-out", dir, "-genome", "-scale", "6", "-seed", "307")
	body := gsnpdUploadBody(t, dir, ".soap", nil)

	// The tools are built by now, so TMPDIR holds only what gsnpd makes.
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	cmd, base, stderr := startGsnpd(t, "-workers", "1")
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, data)
	}
	var accepted gsnpdJobDoc
	if err := json.Unmarshal(data, &accepted); err != nil || accepted.ID == "" {
		t.Fatalf("bad accept document %s: %v", data, err)
	}
	wals, err := filepath.Glob(filepath.Join(tmp, "gsnpd-*", "wal.ndjson"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("journals under TMPDIR while serving an upload: %v (%v), want one gsnpd-*/wal.ndjson", wals, err)
	}
	if _, state := gsnpdStream(t, base, accepted.ID); state != "done" {
		t.Fatalf("uploaded job final state %q, want done", state)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("gsnpd exit after SIGTERM: %v\nstderr:\n%s", err, stderr.String())
	}
	if ents, err := os.ReadDir(tmp); err != nil || len(ents) != 0 {
		t.Errorf("TMPDIR after a clean exit holds %d entries (%v), want none", len(ents), err)
	}
}

// gsnpdJobDoc decodes GET /jobs/{id} (wire shape pinned, not imported).
type gsnpdJobDoc struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Total     int    `json:"total"`
	Completed int    `json:"completed"`
	Recovered bool   `json:"recovered"`
}

func gsnpdGetJob(t *testing.T, base, id string) gsnpdJobDoc {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc gsnpdJobDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestGsnpdCrashRecovery is the crash-durability acceptance scenario: a
// real gsnpd process with -journal-dir accepts an uploaded-inputs job, is
// SIGKILLed mid-run, and a restarted process on the same journal
// directory resumes the job — chromosomes checkpointed before the kill
// are served without re-executing (marked recovered), the rest complete,
// and every streamed byte is identical to an uninterrupted serial run.
func TestGsnpdCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("service integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "gsnp-gen", "-out", dir, "-genome", "-scale", "8", "-seed", "305")
	run(t, "gsnp", "-genome-dir", dir, "-engine", "gsnp-cpu", "-window", "256", "-workers", "1")

	// The job uploads its inputs inline, so the only copy the restarted
	// server can run from is the journal-owned spool.
	specBody := gsnpdUploadBody(t, dir, ".soap", nil)
	fas, _ := filepath.Glob(filepath.Join(dir, "*.fa")) // the body's chromosomes

	jdir := filepath.Join(t.TempDir(), "journal")
	cmdA, baseA, _ := startGsnpd(t, "-workers", "1", "-journal-dir", jdir)

	resp, err := http.Post(baseA+"/jobs", "application/json", bytes.NewReader(specBody))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %d %s", resp.StatusCode, data)
	}
	var accepted gsnpdJobDoc
	if err := json.Unmarshal(data, &accepted); err != nil || accepted.ID == "" {
		t.Fatalf("bad accept document %s: %v", data, err)
	}
	id := accepted.ID

	// Kill -9 once at least one chromosome is durably checkpointed (the
	// service checkpoints before publishing a completion) but the job as a
	// whole is still running.
	deadline := time.Now().Add(time.Minute)
	for {
		doc := gsnpdGetJob(t, baseA, id)
		if doc.Completed >= 1 && doc.Completed < doc.Total {
			break
		}
		if doc.Completed == doc.Total {
			t.Fatalf("job finished before the kill could land; enlarge the dataset")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no chromosome completed within a minute: %+v", doc)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmdA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmdA.Wait() // exit status is the kill signal; only reaping matters

	// Restart on the same journal. Recovery runs before the listening
	// line, so the job is queryable as soon as the port is known.
	cmdB, baseB, stderrB := startGsnpd(t, "-workers", "2", "-journal-dir", jdir)
	doc := gsnpdGetJob(t, baseB, id)
	if !doc.Recovered {
		t.Fatalf("restarted job not marked recovered: %+v\nstderr:\n%s", doc, stderrB.String())
	}

	// The recovered stream must be byte-identical to the uninterrupted
	// serial run, with the pre-kill chromosomes served from checkpoints.
	resp, err = http.Get(baseB + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	type rec struct {
		Name      string `json:"name"`
		State     string `json:"state"`
		Error     string `json:"error"`
		OutputB64 []byte `json:"output_b64"`
		Final     bool   `json:"final"`
		Recovered bool   `json:"recovered"`
	}
	got := make(map[string]rec)
	finalState := ""
	dec := json.NewDecoder(resp.Body)
	for finalState == "" {
		var r rec
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("recovered stream truncated: %v", err)
		}
		if r.Final {
			finalState = r.State
			continue
		}
		got[r.Name] = r
	}
	if finalState != "done" {
		t.Fatalf("recovered job final state %q, want done", finalState)
	}
	if len(got) != len(fas) {
		t.Fatalf("recovered stream carried %d chromosomes, want %d", len(got), len(fas))
	}
	fromCheckpoint := 0
	for _, fa := range fas {
		name := filepath.Base(fa)
		want, err := os.ReadFile(strings.TrimSuffix(fa, ".fa") + ".result")
		if err != nil {
			t.Fatal(err)
		}
		r, ok := got[name]
		if !ok {
			t.Fatalf("chromosome %s missing from recovered stream", name)
		}
		if r.State != "ok" {
			t.Fatalf("chromosome %s: state %s (%s)", name, r.State, r.Error)
		}
		if !bytes.Equal(r.OutputB64, want) {
			t.Errorf("%s: recovered bytes differ from the serial run", name)
		}
		if r.Recovered {
			fromCheckpoint++
		}
	}
	if fromCheckpoint == 0 {
		t.Error("no chromosome was served from a checkpoint; the pre-kill work was redone")
	}
	if fromCheckpoint == len(fas) {
		t.Error("every chromosome came from checkpoints; the kill landed after completion")
	}
	t.Logf("recovered %d/%d chromosomes from checkpoints", fromCheckpoint, len(fas))

	// The recovered server drains cleanly.
	if err := cmdB.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmdB.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gsnpd exit after recovery drain: %v\nstderr:\n%s", err, stderrB.String())
		}
	case <-time.After(time.Minute):
		cmdB.Process.Kill()
		t.Fatalf("recovered gsnpd did not drain\nstderr:\n%s", stderrB.String())
	}
}

// TestGsnpdCrashRecoveryFASTQ runs the crash-durability scenario over the
// raw-reads pipeline: an uploaded FASTQ job with VCF output is SIGKILLed
// mid-run, the restarted server resumes it from the journal, and every
// recovered chromosome's VCF bytes are identical to an uninterrupted gsnp
// CLI run. Resubmitting the same job afterwards must be a cache hit —
// recovery registers the completed result under the same content key a
// fresh submission would compute.
func TestGsnpdCrashRecoveryFASTQ(t *testing.T) {
	if testing.Short() {
		t.Skip("service integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "gsnp-gen", "-out", dir, "-genome", "-scale", "8", "-seed", "306", "-fastq")
	// The CLI baseline: the byte-identity reference for both the recovered
	// stream and the cached replay.
	run(t, "gsnp", "-genome-dir", dir, "-format", "fastq", "-output-format", "vcf",
		"-engine", "gsnp-cpu", "-window", "256", "-workers", "1")

	specBody := gsnpdUploadBody(t, dir, ".fq", map[string]any{"format": "fastq", "output_format": "vcf"})
	fas, _ := filepath.Glob(filepath.Join(dir, "*.fa")) // the body's chromosomes
	submit := func(base string) string {
		t.Helper()
		resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(specBody))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /jobs: %d %s", resp.StatusCode, data)
		}
		var accepted gsnpdJobDoc
		if err := json.Unmarshal(data, &accepted); err != nil || accepted.ID == "" {
			t.Fatalf("bad accept document %s: %v", data, err)
		}
		return accepted.ID
	}

	jdir := filepath.Join(t.TempDir(), "journal")
	cmdA, baseA, _ := startGsnpd(t, "-workers", "1", "-journal-dir", jdir)
	id := submit(baseA)

	// Kill -9 once at least one chromosome is durably checkpointed but the
	// job as a whole is still running.
	deadline := time.Now().Add(time.Minute)
	for {
		doc := gsnpdGetJob(t, baseA, id)
		if doc.Completed >= 1 && doc.Completed < doc.Total {
			break
		}
		if doc.Completed == doc.Total && doc.Total > 0 {
			t.Fatalf("job finished before the kill could land; enlarge the dataset")
		}
		if time.Now().After(deadline) {
			t.Fatalf("no chromosome completed within a minute: %+v", doc)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmdA.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	cmdA.Wait()

	cmdB, baseB, stderrB := startGsnpd(t, "-workers", "2", "-journal-dir", jdir)
	if doc := gsnpdGetJob(t, baseB, id); !doc.Recovered {
		t.Fatalf("restarted job not marked recovered: %+v\nstderr:\n%s", doc, stderrB.String())
	}

	// The recovered stream: VCF bytes identical to the CLI run, with the
	// pre-kill chromosomes served from checkpoints.
	streamed, finalState := gsnpdStream(t, baseB, id)
	if finalState != "done" {
		t.Fatalf("recovered job final state %q, want done", finalState)
	}
	if len(streamed) != len(fas) {
		t.Fatalf("recovered stream carried %d chromosomes, want %d", len(streamed), len(fas))
	}
	for _, fa := range fas {
		name := filepath.Base(fa)
		want, err := os.ReadFile(strings.TrimSuffix(fa, ".fa") + ".vcf")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(streamed[name], want) {
			t.Errorf("%s: recovered VCF bytes differ from the CLI run", name)
		}
	}

	// The completed recovery caches its result; an identical resubmission
	// replays from the cache without recomputing anything.
	deadline = time.Now().Add(10 * time.Second)
	for gsnpdGetStatz(t, baseB).Cache.Puts == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("recovered result never cached: %+v", gsnpdGetStatz(t, baseB))
		}
		time.Sleep(10 * time.Millisecond)
	}
	id2 := submit(baseB)
	replayed, state2 := gsnpdStream(t, baseB, id2)
	if state2 != "cached" {
		t.Fatalf("resubmission after recovery: final state %q, want cached", state2)
	}
	for name, want := range streamed {
		if !bytes.Equal(replayed[name], want) {
			t.Errorf("%s: cached replay differs from the recovered stream", name)
		}
	}

	if err := cmdB.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmdB.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("gsnpd exit after recovery drain: %v\nstderr:\n%s", err, stderrB.String())
		}
	case <-time.After(time.Minute):
		cmdB.Process.Kill()
		t.Fatalf("recovered gsnpd did not drain\nstderr:\n%s", stderrB.String())
	}
}

// TestGsnpdSlowHeaderClosed: a client that sends half a request header and
// stops is disconnected by the server's header timeout instead of holding
// its connection (and goroutine) for the life of the process.
func TestGsnpdSlowHeaderClosed(t *testing.T) {
	if testing.Short() {
		t.Skip("service integration in -short mode")
	}
	_, base, _ := startGsnpd(t, "-workers", "1")
	conn, err := net.Dial("tcp", strings.TrimPrefix(base, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: gsnpd\r\n"); err != nil {
		t.Fatal(err)
	}
	// The server's header timeout is 5 s; a read that is still blocked well
	// past it means the connection was never shed.
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("connection with a half-sent header still open after 20s: %v", err)
	}
}
