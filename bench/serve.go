package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemon is one gsnpd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	start  time.Time
	done   chan struct{} // closed once the process has been reaped
}

// listenWatcher is the daemon's stdout: it reports the address from the
// "listening on" line and discards the rest.
type listenWatcher struct {
	buf  []byte
	base chan string
}

func (w *listenWatcher) Write(p []byte) (int, error) {
	if w.base != nil {
		w.buf = append(w.buf, p...)
		if line, _, ok := bytes.Cut(w.buf, []byte("\n")); ok {
			if _, addr, found := strings.Cut(string(line), "listening on "); found {
				w.base <- strings.TrimSpace(addr)
				w.base, w.buf = nil, nil
			} else {
				w.buf = w.buf[len(line)+1:]
			}
		}
	}
	return len(p), nil
}

// startDaemon launches gsnpd on a kernel-chosen port over journal and
// returns once it has printed its address, which it does after replaying
// the journal.
func startDaemon(ctx context.Context, e *env, journal string) (*daemon, error) {
	d := &daemon{done: make(chan struct{})}
	d.cmd = exec.CommandContext(ctx, e.bin("gsnpd"), "-addr", "127.0.0.1:0", "-journal-dir", journal)
	base := make(chan string, 1) // one send, possibly after the receiver gave up
	d.cmd.Stdout = &listenWatcher{base: base}
	d.cmd.Stderr = &d.stderr
	d.start = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		d.cmd.Wait() // exit status is read from ProcessState
		close(d.done)
	}()
	select {
	case d.base = <-base:
		return d, nil
	case <-d.done:
		return nil, fmt.Errorf("gsnpd exited before listening: %s", lastLine(d.stderr.String()))
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, fmt.Errorf("gsnpd did not print its address within 60s")
	}
}

// stop drains the daemon with SIGTERM and reaps it; a daemon that does not
// exit cleanly within 30 s is killed and reported.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		d.kill()
		return fmt.Errorf("gsnpd did not drain within 30s")
	}
	if code := d.cmd.ProcessState.ExitCode(); code != 0 {
		return fmt.Errorf("gsnpd exit %d after SIGTERM: %s", code, lastLine(d.stderr.String()))
	}
	return nil
}

// kill is kill -9, and waits for the process to be gone; on a daemon that
// has already exited it only returns.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// statz is the part of GET /statz the benchmark checks.
type statz struct {
	RecoveredJobs uint64 `json:"recovered_jobs"`
	Cache         struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		Puts   uint64 `json:"puts"`
	} `json:"cache"`
	SingleFlightJoins uint64 `json:"single_flight_joins"`
}

func getStatz(base string) (statz, error) {
	var st statz
	resp, err := http.Get(base + "/statz")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("GET /statz: %s", resp.Status)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// record is what the client keeps of one stream record: the state and the
// sha256 of the base64 text of its output, never the output itself.
type record struct {
	state     string
	sum       [sha256.Size]byte
	recovered bool
}

// job is one submission as its client saw it.
type job struct {
	dir                       int // index of the input directory
	id                        string
	submit, acked, first, end time.Time
	status                    int    // HTTP status of the POST
	final                     string // state of the final stream record, "" if the stream ended without one
	records                   map[string]record
	bytes                     int64
	traced                    bool
	err                       error
}

// jobMS is f in milliseconds over the jobs that ended without error and
// that keep (nil: all) selects.
func jobMS(jobs []*job, keep func(*job) bool, f func(*job) time.Duration) []float64 {
	var out []float64
	for _, j := range jobs {
		if j.err == nil && (keep == nil || keep(j)) {
			out = append(out, f(j).Seconds()*1e3)
		}
	}
	return out
}

// client is one closed-loop caller with one connection: it sends its next
// request only when the previous job's stream has ended.
type client struct {
	http *http.Client
	buf  []byte
}

func newClient() *client {
	// The timeout covers a whole exchange, stream included; the longest job
	// here takes a few seconds.
	return &client{http: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}},
		buf: make([]byte, 0, 8<<20)}
}

// field returns the string value of "key":"value" in a stream line's
// envelope. The envelope holds names and states, which need no unescaping.
func field(envelope []byte, key string) string {
	_, rest, ok := bytes.Cut(envelope, []byte(`"`+key+`":"`))
	if !ok {
		return ""
	}
	v, _, _ := bytes.Cut(rest, []byte(`"`))
	return string(v)
}

var payloadKey = []byte(`"output_b64":"`)

// scanRecord splits one NDJSON stream line into its envelope and its
// base64 payload without decoding either: the payload is megabytes, and
// on a two-core host a client that unmarshalled it would be measuring
// itself. Base64 text holds no quote, so the payload ends at the next one.
func scanRecord(line []byte) (name string, final bool, rec record) {
	head, tail := line, []byte(nil)
	if i := bytes.Index(line, payloadKey); i >= 0 {
		payload := line[i+len(payloadKey):]
		n := bytes.IndexByte(payload, '"')
		if n < 0 {
			n = len(payload)
		}
		rec.sum = sha256.Sum256(payload[:n])
		head, tail = line[:i], payload[n:]
	}
	// The payload is the only large field; whichever side of it the server
	// writes the others on, they are in one of two short pieces.
	find := func(key string) string {
		if v := field(head, key); v != "" {
			return v
		}
		return field(tail, key)
	}
	has := func(flag string) bool {
		return bytes.Contains(head, []byte(flag)) || bytes.Contains(tail, []byte(flag))
	}
	rec.state, rec.recovered = find("state"), has(`"recovered":true`)
	return find("name"), has(`"final":true`), rec
}

// submit posts one job and returns its id.
func (c *client) submit(base, body string, j *job) {
	resp, err := c.http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		j.err = err
		return
	}
	ack, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	j.acked, j.status = time.Now(), resp.StatusCode
	if err != nil || resp.StatusCode != http.StatusAccepted {
		j.err = fmt.Errorf("POST /jobs: %s %s %v", resp.Status, bytes.TrimSpace(ack), err)
		return
	}
	var doc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(ack, &doc); err != nil || doc.ID == "" {
		j.err = fmt.Errorf("POST /jobs: no id in %s", ack)
		return
	}
	j.id = doc.ID
}

// stream reads a job's NDJSON stream to its final record. onRecord, if
// set, is called after each chromosome record with the count so far.
func (c *client) stream(base string, j *job, onRecord func(n int)) {
	resp, err := c.http.Get(base + "/jobs/" + j.id + "/stream")
	if err != nil {
		j.err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		j.err = fmt.Errorf("GET stream: %s", resp.Status)
		return
	}
	j.records = make(map[string]record)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(c.buf, 256<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if j.first.IsZero() {
			j.first = time.Now()
		}
		j.bytes += int64(len(line)) + 1
		name, final, rec := scanRecord(line)
		if final {
			j.final = rec.state
			break
		}
		j.records[name] = rec
		if onRecord != nil {
			onRecord(len(j.records))
		}
	}
	j.end = time.Now()
	if j.final == "" {
		j.err = fmt.Errorf("stream of %s ended without a final record: %v", j.id, sc.Err())
	}
}

// run submits one job and follows it to its end. With tr set it records
// the job's spans: submission to final record, with the acknowledgement,
// the wait for the first record and the stream as children.
func (c *client) run(base, body string, dir int, tr *tracer, phase string) *job {
	j := &job{dir: dir, traced: tr != nil, submit: time.Now()}
	if c.submit(base, body, j); j.err == nil {
		c.stream(base, j, nil)
	}
	if j.end.IsZero() {
		j.end = time.Now()
	}
	j.trace(tr, phase)
	return j
}

func (j *job) trace(tr *tracer, phase string) {
	if tr == nil || j.err != nil {
		return
	}
	id := tr.add(0, "job:"+phase, "service", j.id, j.submit, j.end)
	tr.add(id, "submit_ack", "service", j.id, j.submit, j.acked)
	tr.add(id, "first_record", "service", j.id, j.acked, j.first)
	tr.add(id, "stream", "service", j.id, j.first, j.end)
}

// closedLoop runs the jobs in order over the clients: each client takes
// the next job when its previous one has ended.
func closedLoop(clients []*client, base string, bodies []string, dirs []int, phase string, tracerOf func(i int) *tracer) ([]*job, float64) {
	jobs := make([]*job, len(dirs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(dirs); i = int(next.Add(1)) - 1 {
				jobs[i] = c.run(base, bodies[dirs[i]], dirs[i], tracerOf(i), phase)
			}
		}()
	}
	wg.Wait()
	return jobs, time.Since(start).Seconds()
}

// joinedLoop submits each directory from two clients at the same moment,
// so that one submission leads and the other joins its execution.
func joinedLoop(pair [2]*client, base string, bodies []string, dirs []int, tr *tracer) ([]*job, float64) {
	var jobs []*job
	start := time.Now()
	for _, d := range dirs {
		var got [2]*job
		var wg sync.WaitGroup
		gate := make(chan struct{})
		for k, c := range pair {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-gate
				got[k] = c.run(base, bodies[d], d, tr, "joined")
			}()
		}
		close(gate)
		wg.Wait()
		jobs = append(jobs, got[0], got[1])
	}
	return jobs, time.Since(start).Seconds()
}

// payloadSum is the sha256 a stream record's payload must have if it
// carries exactly data: the JSON marshaller writes a []byte as padded
// standard base64.
func payloadSum(data []byte) [sha256.Size]byte {
	h := sha256.New()
	enc := base64.NewEncoder(base64.StdEncoding, h)
	enc.Write(data) // a hash never fails a write
	enc.Close()
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// cliSums runs the CLI over a genome directory and returns, per unit name
// as gsnpd reports it ("chr20.fa"), the payload sum of the CLI's bytes.
func cliSums(ctx context.Context, e *env, dir string) (map[string][sha256.Size]byte, error) {
	cr, err := runChild(ctx, e.bin("gsnp"), "-genome-dir", dir, "-engine", "gsnp-cpu")
	if err != nil {
		return nil, err
	}
	if cr.Exit != 0 {
		return nil, fmt.Errorf("gsnp -genome-dir %s: exit %d: %s", filepath.Base(dir), cr.Exit, lastLine(cr.Stderr))
	}
	results, _ := filepath.Glob(filepath.Join(dir, "*.result"))
	sums := make(map[string][sha256.Size]byte)
	for _, f := range results {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		sums[strings.TrimSuffix(filepath.Base(f), ".result")+".fa"] = payloadSum(data)
	}
	return sums, nil
}

// checkJob verifies one job against the CLI's bytes and the final state
// its phase must end in; it returns "" or what is wrong.
func checkJob(j *job, want map[string][sha256.Size]byte, finals ...string) string {
	switch {
	case j.err != nil:
		return j.err.Error()
	case !slices.Contains(finals, j.final):
		return fmt.Sprintf("job %s: final state %q, want one of %v", j.id, j.final, finals)
	case len(j.records) != len(want):
		return fmt.Sprintf("job %s: %d chromosome records, want %d", j.id, len(j.records), len(want))
	}
	for name, sum := range want {
		rec, ok := j.records[name]
		switch {
		case !ok:
			return fmt.Sprintf("job %s: no record for %s", j.id, name)
		case rec.state != "ok":
			return fmt.Sprintf("job %s: %s: state %q", j.id, name, rec.state)
		case rec.sum != sum:
			return fmt.Sprintf("job %s: %s: streamed bytes differ from the CLI's", j.id, name)
		}
	}
	return ""
}

// serveSizes derives the job counts from the run length. At the contract's
// run length there are 40 distinct directories — the fewest whose cold
// phase has ten samples beyond its p75 — each resubmitted ten times (400
// cached jobs: twenty beyond p95), half of them joined, and five kill-and-
// recover cycles.
func serveSizes(seconds float64) (dirs, passes, joined, cycles int) {
	dirs = min(max(int(4*seconds), 20), 40)
	return dirs, 10, dirs / 2, 5
}

// runServe measures serve-mixed: a closed loop of min(nproc, 2) clients
// against one gsnpd, through the four ways a job can be served.
func runServe(ctx context.Context, e *env, seed int64, seconds float64, tr *tracer) (*runResult, error) {
	res := newRunResult()
	nDirs, passes, nJoined, cycles := serveSizes(seconds)
	reps := setupReps
	if tr != nil {
		reps = 1
	}
	dirName := func(root string, i int) string { return filepath.Join(root, fmt.Sprintf("d%02d", i)) }
	in, setupS, err := setUp(ctx, e, reps, func(dir string) error {
		for i := 0; i < nDirs; i++ {
			for _, chr := range []string{"chr20", "chr21", "chr22"} {
				if err := e.gen(ctx, dirName(dir, i), seed+1+int64(i), "-chr", chr, "-scale", fmt.Sprint(serveDirScale)); err != nil {
					return err
				}
			}
		}
		return e.gen(ctx, filepath.Join(dir, "genome"), seed, "-genome", "-scale", fmt.Sprint(serveGenomeScale))
	})
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setupS, reps)

	dirs := make([]string, nDirs+1) // the last is the 24-chromosome directory
	bodies := make([]string, len(dirs))
	for i := range dirs {
		dirs[i] = dirName(in, i)
		if i == nDirs {
			dirs[i] = filepath.Join(in, "genome")
		}
		body, _ := json.Marshal(map[string]string{"genome_dir": dirs[i], "engine": "gsnp-cpu"})
		bodies[i] = string(body)
	}
	pair := [2]*client{newClient(), newClient()}
	clients := pair[:min(runtime.NumCPU(), 2)]
	seq := func(n, times int) []int {
		var s []int
		for t := 0; t < times; t++ {
			for i := 0; i < n; i++ {
				s = append(s, i)
			}
		}
		return s
	}

	var cpu, rss float64
	reap := func(d *daemon) {
		c, r := usage(d.cmd.ProcessState)
		cpu, rss = cpu+c, max(rss, r)
	}
	var failures []string
	expect := func(what string, got, want uint64) {
		if got != want {
			failures = append(failures, fmt.Sprintf("/statz %s = %d, want %d", what, got, want))
		}
	}

	// Every daemon is killed and reaped on the way out, whichever way that is.
	var started []*daemon
	defer func() {
		for _, d := range started {
			d.kill()
		}
		for _, c := range pair {
			c.http.CloseIdleConnections()
		}
	}()
	start := func(journal string) (*daemon, error) {
		d, err := startDaemon(ctx, e, journal)
		if err == nil {
			started = append(started, d)
		}
		return d, err
	}

	// Cold, then cached, on one daemon.
	journal := filepath.Join(e.workDir, "journal")
	d, err := start(journal)
	if err != nil {
		return nil, err
	}
	cold, coldWall := closedLoop(clients, d.base, bodies, seq(nDirs, 1), "cold", func(int) *tracer { return tr })
	// A result enters the cache just after its final record is published.
	st, err := getStatz(d.base)
	for deadline := time.Now().Add(10 * time.Second); err == nil && st.Cache.Puts < uint64(nDirs) && time.Now().Before(deadline); st, err = getStatz(d.base) {
		time.Sleep(5 * time.Millisecond)
	}
	// With tracing on, every other cached job records spans; the latency
	// gap between the two halves is what tracing costs the client.
	cached, cachedWall := closedLoop(clients, d.base, bodies, seq(nDirs, passes), "cached", func(i int) *tracer {
		if i%2 == 1 {
			return tr
		}
		return nil
	})
	if st, err = getStatz(d.base); err != nil {
		failures = append(failures, err.Error())
	}
	expect("cache.hits after the cached phase", st.Cache.Hits, uint64(nDirs*passes))
	expect("cache.misses after the cached phase", st.Cache.Misses, uint64(nDirs))
	expect("single_flight_joins after the cached phase", st.SingleFlightJoins, 0)
	hitShare := float64(st.Cache.Hits) / float64(max(st.Cache.Hits+st.Cache.Misses, 1))
	if err := d.stop(); err != nil {
		failures = append(failures, err.Error())
	}
	reap(d)

	// Joined, on a restarted daemon: same journal, empty cache.
	if d, err = start(journal); err != nil {
		return nil, err
	}
	joined, joinedWall := joinedLoop(pair, d.base, bodies, seq(nJoined, 1), tr)
	if st, err = getStatz(d.base); err != nil {
		failures = append(failures, err.Error())
	}
	expect("single_flight_joins after the joined phase", st.SingleFlightJoins, uint64(nJoined))
	expect("cache.hits after the joined phase", st.Cache.Hits, 0)
	joins := float64(st.SingleFlightJoins)
	if err := d.stop(); err != nil {
		failures = append(failures, err.Error())
	}
	reap(d)

	// Recovered: kill -9 in mid-job, restart on the same journal.
	var recovered []*job
	var recoveredMS, readyMS []float64
	recRecords, allRecords := 0, 0
	for c := 0; c < cycles; c++ {
		jdir := filepath.Join(e.workDir, fmt.Sprintf("journal-r%d", c))
		if d, err = start(jdir); err != nil {
			return nil, err
		}
		victim := d
		j := &job{dir: nDirs, submit: time.Now()}
		if pair[0].submit(d.base, bodies[nDirs], j); j.err != nil {
			d.kill()
			return nil, fmt.Errorf("recovered cycle %d: %w", c, j.err)
		}
		pair[0].stream(d.base, j, func(n int) {
			if n == 12 {
				victim.kill()
			}
		})
		select {
		case <-victim.done:
		default: // the job ended before its 12th record could trigger the kill
			victim.kill()
			failures = append(failures, fmt.Sprintf("recovered cycle %d: job finished before the kill", c))
		}
		reap(victim)
		pair[0].http.CloseIdleConnections()

		restart := time.Now()
		if d, err = start(jdir); err != nil {
			return nil, err
		}
		if resp, herr := http.Get(d.base + "/healthz"); herr == nil {
			resp.Body.Close()
			readyMS = append(readyMS, time.Since(restart).Seconds()*1e3)
		}
		r := &job{dir: nDirs, id: j.id, submit: restart, acked: time.Now()}
		pair[0].stream(d.base, r, nil)
		r.trace(tr, "recovered")
		recovered = append(recovered, r)
		recoveredMS = append(recoveredMS, r.end.Sub(restart).Seconds()*1e3)
		for _, rec := range r.records {
			allRecords++
			if rec.recovered {
				recRecords++
			}
		}
		if st, err = getStatz(d.base); err != nil {
			failures = append(failures, err.Error())
		}
		expect("recovered_jobs after a restart", st.RecoveredJobs, 1)
		if err := d.stop(); err != nil {
			failures = append(failures, err.Error())
		}
		reap(d)
	}

	// Verification, untimed: every stream against the CLI's bytes.
	sums := make([]map[string][sha256.Size]byte, len(dirs))
	for i, dir := range dirs {
		if sums[i], err = cliSums(ctx, e, dir); err != nil {
			return nil, err
		}
	}
	var streamed int64
	check := func(jobs []*job, finals ...string) {
		for _, j := range jobs {
			streamed += j.bytes
			var bad []string
			if msg := checkJob(j, sums[j.dir], finals...); msg != "" {
				bad = []string{msg}
			}
			res.add(1, bad)
		}
	}
	check(cold, "done")
	check(cached, "cached")
	check(joined, "done", "cached")
	check(recovered, "done")
	res.add(len(failures), failures) // each broken counter is one failed check

	res.set("wall_s", coldWall+cachedWall+joinedWall, 3)
	res.set("cpu_s", cpu, 2+2*cycles)
	res.set("peak_rss_mb", rss, 2+2*cycles)
	res.set("output_mb", float64(streamed)/1e6, 1)
	whole := func(j *job) time.Duration { return j.end.Sub(j.submit) }
	coldMS, cachedMS := jobMS(cold, nil, whole), jobMS(cached, nil, whole)
	joinedMS := jobMS(joined, func(j *job) bool { return j.final == "cached" }, whole)
	res.set("job_cold_p50_ms", median(coldMS), len(coldMS))
	res.set("job_cold_p75_ms", tail(coldMS, 75), len(coldMS))
	res.set("job_cached_p50_ms", median(cachedMS), len(cachedMS))
	res.set("job_cached_p95_ms", tail(cachedMS, 95), len(cachedMS))
	res.set("job_joined_p50_ms", median(joinedMS), len(joinedMS))
	res.set("job_recovered_p50_ms", median(recoveredMS), len(recoveredMS))
	e.logf("phases: cold %.2fs (%d jobs), cached %.2fs (%d), joined %.2fs (%d), recovered %v ms",
		coldWall, len(cold), cachedWall, len(cached), joinedWall, len(joined), recoveredMS)

	if tr != nil {
		serveLayers(res, cold, cached, joined)
		res.set("service.cache_hit_share", hitShare, nDirs*(passes+1))
		res.set("service.singleflight_joins", joins, nJoined)
		res.set("service.restart_ready_ms", median(readyMS), len(readyMS))
		res.set("service.recovered_chrom_share", float64(recRecords)/float64(max(allRecords, 1)), allRecords)
		if _, err := runLayerprobe(ctx, e, seed, res, tr, []string{"journal", "checkpoint", "resultcache"}, ""); err != nil {
			return nil, err
		}
	}
	return res, nil
}
