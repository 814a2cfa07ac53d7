// Package service is the long-running multi-genome calling server behind
// cmd/gsnpd: it accepts genome-calling jobs over HTTP/JSON, decomposes
// each into per-chromosome tasks via internal/genomejob, shards all active
// jobs' tasks across one shared sched.Pool with round-robin fairness
// across jobs, and streams per-chromosome results back as they complete.
//
// The service inherits every guarantee the batch CLI has: per-chromosome
// output bytes are identical to a serial gsnp run at any worker count,
// failures are contained per chromosome by the pool's Policy (retries,
// deadlines, panic recovery), quarantine degradation is surfaced in the
// job status, and cancelling one job never perturbs another job's bytes.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gsnp/internal/checkpoint"
	"gsnp/internal/faults"
	"gsnp/internal/genomejob"
	"gsnp/internal/gsnp"
	"gsnp/internal/journal"
	"gsnp/internal/pipeline"
	"gsnp/internal/resultcache"
	"gsnp/internal/sched"
)

// Config configures a Server.
type Config struct {
	// Workers is the shared pool's size (<= 0 selects GOMAXPROCS).
	Workers int
	// Retries, RetryBackoff and TaskTimeout feed the pool's sched.Policy,
	// with the same semantics as the CLI flags of the same names.
	Retries      int
	RetryBackoff time.Duration
	TaskTimeout  time.Duration
	// SpoolDir is where uploaded inputs are materialised; empty selects a
	// fresh temporary directory. Ignored when JournalDir is set — the
	// journal owns the spool so uploads survive restarts.
	SpoolDir string
	// MaxBodyBytes caps POST /jobs bodies (0 = 256 MiB).
	MaxBodyBytes int64
	// JournalDir enables crash durability: every accepted job is
	// journaled (write-ahead, fsync'd) before it is acknowledged,
	// uploaded inputs spool under the journal so they survive restarts,
	// per-chromosome outputs are checkpointed durably as they complete,
	// and New replays the journal to re-enqueue jobs a crash
	// interrupted — completed chromosomes are skipped via checkpoint
	// resume and outputs stay byte-identical to an uninterrupted run.
	// Empty disables journaling (jobs die with the process, as before).
	JournalDir string
	// MaxQueued bounds admission: when that many admitted jobs are still
	// unfinished, new submissions are rejected with ErrQueueFull (HTTP
	// 429 + Retry-After) instead of growing the backlog without bound.
	// 0 = unlimited. Recovered jobs bypass the bound (they were already
	// admitted) but count against it.
	MaxQueued int
	// DiskFaults, when set, injects deterministic disk faults into the
	// journal's durable writes (testing; see internal/faults).
	DiskFaults *faults.Injector
	// Logf, when set, receives operational log lines.
	Logf func(format string, args ...any)
	// OnDequeue, when set, observes the shared pool's dispatch order
	// (job id, task index) — the deterministic fairness hook, forwarded
	// after the service's own bookkeeping. Cache hits and single-flight
	// joins never dequeue, so the hook also pins "zero engine work" in
	// the caching tests and benchmarks.
	OnDequeue func(job string, index int)
	// CacheBytes bounds the content-addressed result cache (0 selects
	// 256 MiB). Completed jobs' stream records are retained up to this
	// budget and replayed exactly for identical resubmissions.
	CacheBytes int64
	// CacheOff disables the result cache and single-flight dedup: every
	// submission executes on the pool.
	CacheOff bool
}

// chromResult is one chromosome's in-memory outcome inside the pool.
type chromResult struct {
	output []byte
	res    genomejob.Result
}

// cachedJob is one completed job's replayable output: its chromosome
// stream records (Job field cleared; rewritten to the new id on replay).
// Records are immutable once cached.
type cachedJob struct {
	records []StreamRecord
}

// recordOverhead is the per-record byte charge beyond the variable-size
// fields, approximating the struct + JSON framing so the cache budget
// tracks real memory, not just payload bytes.
const recordOverhead = 128

// size is the cache byte charge for a cached job.
func (cj cachedJob) size() int64 {
	n := int64(0)
	for _, r := range cj.records {
		n += recordOverhead + int64(len(r.OutputB64)) + int64(len(r.Name)) + int64(len(r.Error))
	}
	return n
}

// Server owns the shared worker pool and the job registry.
type Server struct {
	cfg      Config
	pool     *sched.Pool[chromResult, *gsnp.Arena]
	spool    string
	ownSpool bool

	// journal is the crash-durability WAL; nil unless Config.JournalDir
	// is set.
	journal *journal.Journal

	// cache and flights are nil when Config.CacheOff is set. cache maps a
	// job's content key to its recorded stream; flights tracks in-flight
	// executions so identical concurrent submissions share one run.
	cache   *resultcache.Cache[cachedJob]
	flights *resultcache.Flights[*jobState]

	mu       sync.Mutex
	jobs     map[string]*jobState
	seq      int
	draining bool
	// active counts admitted jobs that have not finalized — the
	// MaxQueued admission bound. Cache replays and single-flight
	// followers never count (they occupy no pool capacity).
	active int
	// recoveredN counts jobs re-enqueued from the journal this process.
	recoveredN uint64
}

// errJobCancelled is the cancellation cause DELETE /jobs/{id} installs.
var errJobCancelled = errors.New("job cancelled by client")

// ErrQueueFull is returned to submissions when MaxQueued unfinished jobs
// are already admitted; clients should back off and retry (HTTP 429).
var ErrQueueFull = errors.New("job queue is full")

// ErrJournal wraps journal-append failures: the one submission fails
// cleanly (HTTP 500) while the server keeps serving every other job.
var ErrJournal = errors.New("job journal write failed")

// New builds the server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 256 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{cfg: cfg, jobs: make(map[string]*jobState)}
	if !cfg.CacheOff {
		if cfg.CacheBytes <= 0 {
			cfg.CacheBytes = 256 << 20
		}
		s.cfg.CacheBytes = cfg.CacheBytes
		s.cache = resultcache.New[cachedJob](cfg.CacheBytes)
		s.flights = resultcache.NewFlights[*jobState]()
	}
	if cfg.JournalDir != "" {
		var fault func(op string) error
		if cfg.DiskFaults != nil {
			fault = cfg.DiskFaults.DiskOp
		}
		jn, err := journal.Open(journal.Config{
			Dir: cfg.JournalDir, Fault: fault, Logf: cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		s.journal = jn
		s.seq = jn.MaxSeq()
	}
	switch {
	case s.journal != nil:
		// The journal owns the spool: uploaded inputs must survive a
		// restart, so they live in named per-job directories under the
		// journal rather than a process-lifetime temp dir.
		s.spool = filepath.Join(cfg.JournalDir, "spool")
	case cfg.SpoolDir != "":
		if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
			return nil, err
		}
		s.spool = cfg.SpoolDir
	default:
		dir, err := os.MkdirTemp("", "gsnpd-spool-*")
		if err != nil {
			return nil, err
		}
		s.spool = dir
		s.ownSpool = true
	}
	pol := sched.Policy{
		Retries:         cfg.Retries,
		Backoff:         cfg.RetryBackoff,
		Timeout:         cfg.TaskTimeout,
		RecoverPanics:   true,
		ContinueOnError: true,
		RetryIf: func(err error) bool {
			var re pipeline.RecordError
			return !errors.As(err, &re)
		},
	}
	s.pool = sched.NewPool[chromResult, *gsnp.Arena](sched.PoolConfig{
		Workers:   cfg.Workers,
		Policy:    pol,
		OnDequeue: s.onDequeue,
	}, func(int) *gsnp.Arena { return gsnp.NewArena() })
	if s.journal != nil {
		s.recoverPending()
	}
	return s, nil
}

// jobState is the registry entry for one job. The pool delivers results to
// the collector goroutine, which appends stream records and updates the
// per-chromosome statuses; stream readers wait on notify.
type jobState struct {
	id      string
	spec    *JobSpec
	created time.Time
	units   []genomejob.Unit
	handle  *sched.Job[chromResult] // set once, published by closing ready
	ready   chan struct{}
	dir     string // per-job spool dir for uploaded inputs ("" for genome_dir jobs)

	// key is the job's content-addressed cache key ("" when caching is
	// off or an input could not be hashed). leader, when non-nil, is the
	// in-flight identical job this one mirrors instead of executing
	// (single-flight dedup); stopJoin detaches the mirror on cancel.
	// done closes when the job reaches a final state, whatever the path
	// (pool execution, cache replay, or mirrored stream).
	key      string
	leader   *jobState
	stopJoin chan struct{}
	done     chan struct{}

	// Journal state (zero-valued when the server runs without a
	// journal). journalSeq is the WAL sequence the job was accepted
	// under; workdir holds the durable per-chromosome outputs plus the
	// checkpoint manifest cp maintains; recovered marks a job re-enqueued
	// from the journal after a restart; counted marks a job charged
	// against the MaxQueued admission bound; taskUnit maps pool task
	// indices back to unit indices for recovered jobs that re-enqueued
	// only their unfinished chromosomes (nil = identity).
	journalSeq int
	workdir    string
	cp         *checkpoint.Writer
	recovered  bool
	counted    bool
	taskUnit   []int

	mu        sync.Mutex
	chroms    []ChromStatus
	stream    []StreamRecord
	notify    chan struct{}
	state     string // queued | running | done | partial | failed | cancelled | cached
	cancelled bool
	finished  bool
}

// Job/chromosome states reported over the API.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateOK        = "ok" // chromosome-level success
	StatePartial   = "partial"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
	StatePending   = "pending"
	// StateCached is the final state of a job served without pool work:
	// a cache replay of a prior identical job, or a single-flight join
	// whose leader completed cleanly. Clients distinguishing replays
	// from fresh runs key on it; per-chromosome records keep their
	// recorded states (always "ok" — only fully clean jobs are cached).
	StateCached = "cached"
)

// ChromStatus is one chromosome's status inside a job, in input order.
type ChromStatus struct {
	Name        string `json:"name"`
	State       string `json:"state"`
	Sites       int    `json:"sites,omitempty"`
	Attempts    int    `json:"attempts,omitempty"`
	Quarantined int    `json:"quarantined,omitempty"`
	CalSkipped  int    `json:"cal_skipped,omitempty"`
	WallMS      int64  `json:"wall_ms,omitempty"`
	Error       string `json:"error,omitempty"`
	// Recovered marks a chromosome served from the durable checkpoint
	// after a restart instead of re-executing.
	Recovered bool `json:"recovered,omitempty"`
}

// JobStatus is the GET /jobs/{id} document.
type JobStatus struct {
	ID          string        `json:"id"`
	State       string        `json:"state"`
	Created     time.Time     `json:"created"`
	Engine      string        `json:"engine"`
	Total       int           `json:"total"`
	Completed   int           `json:"completed"`
	Chromosomes []ChromStatus `json:"chromosomes"`
	// Recovered marks a job replayed from the journal after a restart:
	// its spec, inputs and already-completed chromosomes survived the
	// crash, and its output bytes are identical to an uninterrupted run.
	Recovered bool `json:"recovered,omitempty"`
}

// StreamRecord is one line of GET /jobs/{id}/stream: a completed
// chromosome (in completion order, Index recovering input order), or the
// final job summary line (Final == true).
type StreamRecord struct {
	Job         string `json:"job"`
	Index       int    `json:"index"`
	Name        string `json:"name,omitempty"`
	State       string `json:"state"`
	Sites       int    `json:"sites,omitempty"`
	Quarantined int    `json:"quarantined,omitempty"`
	CalSkipped  int    `json:"cal_skipped,omitempty"`
	Attempts    int    `json:"attempts,omitempty"`
	WallMS      int64  `json:"wall_ms,omitempty"`
	Error       string `json:"error,omitempty"`
	// OutputB64 carries the chromosome's result bytes (text rows, or the
	// compressed container under Compress), base64-encoded by the JSON
	// marshaller.
	OutputB64 []byte `json:"output_b64,omitempty"`
	// Final marks the job summary line that terminates the stream. Its
	// State is the job's final state; "cached" identifies a stream served
	// from the result cache or a single-flight join rather than a fresh
	// execution.
	Final bool `json:"final,omitempty"`
	// Recovered marks a record served from the durable checkpoint after
	// a restart (the chromosome was not re-executed; its bytes were
	// validated against the recorded digest), and on the Final record, a
	// job that was re-enqueued from the journal.
	Recovered bool `json:"recovered,omitempty"`
}

// submit registers and enqueues one parsed job spec. Caller must not hold
// s.mu.
func (s *Server) submit(spec *JobSpec) (*jobState, error) {
	opts := spec.Options()

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	// Admission backpressure: shed before spooling and hashing, not
	// after. The registration block below re-checks authoritatively.
	if s.cfg.MaxQueued > 0 && s.active >= s.cfg.MaxQueued {
		s.mu.Unlock()
		return nil, ErrQueueFull
	}
	s.seq++
	seq := s.seq
	id := fmt.Sprintf("j%d", seq)
	s.mu.Unlock()

	js := &jobState{
		//gsnplint:ignore determinism arrival timestamp is job metadata for listing order, never part of a result stream
		id: id, spec: spec, created: time.Now(),
		notify:   make(chan struct{}),
		ready:    make(chan struct{}),
		stopJoin: make(chan struct{}),
		done:     make(chan struct{}),
		state:    StateQueued,
	}
	fail := func(err error) (*jobState, error) {
		s.removeDir("job "+js.id+" spool dir", js.dir)
		return nil, err
	}

	var units []genomejob.Unit
	var err error
	if spec.GenomeDir != "" {
		units, _, err = genomejob.Discover(spec.GenomeDir, opts)
	} else {
		js.dir = filepath.Join(s.spool, id)
		if err := spoolInputs(js.dir, spec); err != nil {
			return fail(err)
		}
		units, _, err = genomejob.Discover(js.dir, opts)
	}
	if err != nil {
		return fail(err)
	}
	if len(units) == 0 {
		return fail(fmt.Errorf("job has no runnable chromosomes"))
	}

	js.units = units
	js.chroms = make([]ChromStatus, len(units))
	for i, u := range units {
		js.chroms[i] = ChromStatus{Name: u.Name, State: StatePending}
	}

	// Content digests feed two consumers: the result-cache key and the
	// journal's recorded input identity (what recovery re-validates
	// against). An unhashable input (e.g. a file racing deletion) makes
	// the job uncacheable and falls through to normal execution — unless
	// a journal must record it, in which case the job is refused: the
	// journal cannot promise to recover inputs it could not hash.
	var digests []string
	if s.cache != nil || s.journal != nil {
		var derr error
		digests, derr = genomejob.UnitDigests(units)
		if derr != nil {
			if s.journal != nil {
				return fail(fmt.Errorf("hashing inputs for the job journal: %w", derr))
			}
			s.cfg.Logf("job %s: uncacheable inputs: %v", id, derr)
			digests = nil
		}
	}

	// Write-ahead: the job is journaled durably before the client sees
	// its 202 — including before a cache replay, so every accepted job
	// is on disk. An append failure fails this one job cleanly (the
	// server keeps serving); nothing was acknowledged, nothing recovers.
	if s.journal != nil {
		if err := s.journalAccept(js, seq, spec, opts, digests); err != nil {
			return fail(fmt.Errorf("%w: %v", ErrJournal, err))
		}
	}

	// Content-addressed short-circuit: an exact prior result replays from
	// the cache with zero pool work; an identical job already executing
	// is joined (single-flight) instead of run twice.
	if s.cache != nil && digests != nil {
		js.key = jobKey(opts, digests)
		if cj, ok := s.cache.Get(js.key); ok {
			return s.serveCached(js, cj)
		}
		if leader, joined := s.flights.Begin(js.key, js); joined {
			return s.serveJoined(js, leader)
		}
		// This job is now the flight leader; every early exit below
		// must End the flight so identical waiters are not stranded.
	}
	failLeader := func(err error) (*jobState, error) {
		// A follower may have joined the flight already (draining can
		// land between its registration check and ours): finalise this
		// job — which also journals the terminal state and removes its
		// spool/work dirs — so the mirror resolves, then close the
		// flight.
		s.finalize(js, StateFailed)
		if js.key != "" {
			s.flights.End(js.key)
		}
		return nil, err
	}

	tasks := s.buildTasks(js, opts, units)

	// The registry entry must exist before the pool can dispatch the first
	// task (the dequeue hook looks the job up by id); the handle is
	// published through the ready channel for anyone who raced the gap.
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return failLeader(ErrDraining)
	}
	if s.cfg.MaxQueued > 0 && s.active >= s.cfg.MaxQueued {
		s.mu.Unlock()
		return failLeader(ErrQueueFull)
	}
	s.jobs[id] = js
	s.active++
	js.counted = true
	s.mu.Unlock()

	handle, err := s.pool.Submit(id, tasks)
	if err != nil {
		close(js.ready)
		s.mu.Lock()
		delete(s.jobs, id)
		s.mu.Unlock()
		// A concurrent identical submission may already be mirroring this
		// job; finalise (which also removes the spool dir) so followers
		// resolve instead of waiting forever, then close the flight.
		s.finalize(js, StateFailed)
		if js.key != "" {
			s.flights.End(js.key)
		}
		return nil, err
	}
	js.handle = handle
	close(js.ready)
	go s.collect(js)
	s.cfg.Logf("job %s: submitted (%d chromosomes, engine %s)", id, len(units), spec.Engine)
	return js, nil
}

// buildTasks maps units onto pool tasks. For recovered jobs the slice
// may cover only the unfinished units; js.taskUnit records the mapping
// back to unit indices.
func (s *Server) buildTasks(js *jobState, opts genomejob.Options, units []genomejob.Unit) []sched.Task[chromResult, *gsnp.Arena] {
	tasks := make([]sched.Task[chromResult, *gsnp.Arena], len(units))
	for i, u := range units {
		u := u
		tasks[i] = sched.Task[chromResult, *gsnp.Arena]{
			Name: u.Name,
			Run: func(ctx context.Context, arena *gsnp.Arena) (chromResult, error) {
				var buf bytes.Buffer
				res, err := genomejob.Call(ctx, opts, u, &buf, io.Discard, arena)
				if err != nil {
					return chromResult{}, err
				}
				return chromResult{output: buf.Bytes(), res: res}, nil
			},
		}
	}
	return tasks
}

// journalAccept records the job in the WAL and prepares its durable work
// directory (checkpoint manifest + per-chromosome outputs). Uploaded
// input bodies are stripped from the journaled spec — they live in the
// journal-owned spool directory, which survives restarts.
func (s *Server) journalAccept(js *jobState, seq int, spec *JobSpec, opts genomejob.Options, digests []string) error {
	walSpec := *spec
	walSpec.Inputs = nil
	raw, err := json.Marshal(&walSpec)
	if err != nil {
		return err
	}
	e := journal.Entry{
		Seq: seq, Job: js.id, Spec: raw,
		Fingerprint: opts.Fingerprint(), Digests: digests,
		Created: js.created,
	}
	if js.dir != "" {
		e.Spool = js.id
	}
	if err := s.journal.Accept(e); err != nil {
		return err
	}
	js.journalSeq = seq
	if err := s.openWorkdir(js, opts); err != nil {
		// Accepted but unable to checkpoint: journal the failure so the
		// entry is not replayed, then refuse the job.
		if ferr := s.journal.Final(seq, js.id, StateFailed); ferr != nil {
			s.cfg.Logf("job %s: journal final after workdir failure: %v", js.id, ferr)
		}
		return err
	}
	return nil
}

// openWorkdir creates the job's durable work directory and checkpoint
// writer (resume loads any entries a previous incarnation completed).
func (s *Server) openWorkdir(js *jobState, opts genomejob.Options) error {
	js.workdir = s.journal.WorkDir(js.id)
	if err := os.MkdirAll(js.workdir, 0o755); err != nil {
		return err
	}
	cp, err := checkpoint.NewWriter(checkpoint.Path(js.workdir), opts.Fingerprint(), js.recovered)
	if err != nil {
		return err
	}
	js.cp = cp
	return nil
}

// jobKey derives the content-addressed cache key for a job: the
// output-shaping options fingerprint plus every unit's content digest, in
// Discover order. Two keys are equal exactly when the byte-identity
// guarantee says the results must be equal.
func jobKey(opts genomejob.Options, digests []string) string {
	h := sha256.New()
	fmt.Fprintln(h, opts.Fingerprint())
	for _, d := range digests {
		fmt.Fprintln(h, d)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// chromStatusOf projects a stream record onto the status table entry.
func chromStatusOf(rec StreamRecord) ChromStatus {
	return ChromStatus{
		Name: rec.Name, State: rec.State, Sites: rec.Sites,
		Attempts: rec.Attempts, Quarantined: rec.Quarantined,
		CalSkipped: rec.CalSkipped, WallMS: rec.WallMS, Error: rec.Error,
		Recovered: rec.Recovered,
	}
}

// removeDir removes a directory tree, logging (not discarding) removal
// failures: a leftover spool or work directory is leaked disk the
// operator should hear about, and the failure mode (EACCES, busy mounts)
// is actionable. An empty path is a no-op.
func (s *Server) removeDir(what, dir string) {
	if dir == "" {
		return
	}
	if err := os.RemoveAll(dir); err != nil {
		s.cfg.Logf("removing %s %s: %v", what, dir, err)
	}
}

// unitIndex maps a pool task index to the job's unit/chromosome index.
// Identity for fresh jobs; recovered jobs re-enqueue only their
// unfinished units, so the mapping goes through taskUnit.
func (js *jobState) unitIndex(task int) int {
	if js.taskUnit == nil {
		return task
	}
	return js.taskUnit[task]
}

// persistChrom durably records one cleanly completed chromosome: the
// output bytes land in the job's work directory via AtomicWrite, then the
// checkpoint manifest commits the entry (name → output + digest). Called
// before the stream record is published, so any chromosome a client has
// observed as completed is guaranteed to survive a crash and be skipped
// on recovery. Persistence failures degrade to re-execution on recovery
// (logged, never fatal): durability narrows, correctness holds.
func (s *Server) persistChrom(js *jobState, name string, out []byte, sites int) {
	if js.cp == nil {
		return
	}
	opts := js.spec.Options()
	path := filepath.Join(js.workdir, opts.OutName(name))
	if err := checkpoint.AtomicWrite(path, out); err != nil {
		s.cfg.Logf("job %s: checkpoint output %s: %v", js.id, name, err)
		return
	}
	if err := js.cp.Complete(name, path, sites); err != nil {
		s.cfg.Logf("job %s: checkpoint manifest %s: %v", js.id, name, err)
	}
}

// serveCached resolves a submission from a cache entry: the prior job's
// records are replayed under the new job id, the stream terminates with a
// "cached" final record, and the scheduler is never touched.
func (s *Server) serveCached(js *jobState, cj cachedJob) (*jobState, error) {
	js.chroms = make([]ChromStatus, len(cj.records))
	js.stream = make([]StreamRecord, 0, len(cj.records)+1)
	for _, rec := range cj.records {
		rec.Job = js.id
		js.chroms[rec.Index] = chromStatusOf(rec)
		js.stream = append(js.stream, rec)
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		// The job was already journaled (accept-before-consult): finalise
		// so a terminal record lands and the spool/work dirs are removed;
		// otherwise the unacknowledged job would replay after a restart.
		s.finalize(js, StateFailed)
		return nil, ErrDraining
	}
	s.jobs[js.id] = js
	s.mu.Unlock()
	close(js.ready)
	s.finalize(js, StateCached)
	return js, nil
}

// serveJoined attaches a submission to an identical in-flight job: the
// follower mirrors the leader's stream instead of executing.
func (s *Server) serveJoined(js, leader *jobState) (*jobState, error) {
	js.leader = leader
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		// Journaled before the consult: finalise so the WAL records a
		// terminal state instead of replaying an unacknowledged job.
		s.finalize(js, StateFailed)
		return nil, ErrDraining
	}
	s.jobs[js.id] = js
	s.mu.Unlock()
	close(js.ready)
	go s.follow(js)
	s.cfg.Logf("job %s: joined identical in-flight job %s (single-flight)", js.id, leader.id)
	return js, nil
}

// follow mirrors the leader's stream into a single-flight follower:
// replay of everything the leader has already emitted, then live follow
// until the leader finalises. A leader that completes cleanly resolves
// the follower as "cached"; any other leader outcome (partial, failed,
// cancelled) is mirrored verbatim. Cancelling the follower detaches the
// mirror without touching the leader.
func (s *Server) follow(js *jobState) {
	ld := js.leader
	next := 0
	final := ""
	for final == "" {
		ld.mu.Lock()
		recs := ld.stream[next:]
		finished := ld.finished
		notify := ld.notify
		ld.mu.Unlock()
		next += len(recs)
		for _, rec := range recs {
			if rec.Final {
				final = rec.State
				continue
			}
			rec.Job = js.id
			js.mu.Lock()
			js.chroms[rec.Index] = chromStatusOf(rec)
			js.stream = append(js.stream, rec)
			if js.state == StateQueued {
				js.state = StateRunning
			}
			close(js.notify)
			js.notify = make(chan struct{})
			js.mu.Unlock()
		}
		if final != "" || finished {
			break
		}
		select {
		case <-notify:
		case <-js.stopJoin:
			s.finalize(js, StateCancelled)
			return
		}
	}
	js.mu.Lock()
	cancelled := js.cancelled
	js.mu.Unlock()
	switch {
	case cancelled:
		s.finalize(js, StateCancelled)
	case final == StateDone:
		s.finalize(js, StateCached)
	case final == "":
		// The leader finalised without a final record: impossible today,
		// but resolve the follower rather than wedging it.
		s.finalize(js, StateFailed)
	default:
		s.finalize(js, final)
	}
}

// finalize moves a job to its final state: the terminal state is journaled
// (when a journal is active), the job's spool/work directories are removed,
// the terminating stream record is appended, waiters wake and the done
// channel closes. Exactly one finalize happens per job, whatever path
// resolved it.
func (s *Server) finalize(js *jobState, state string) {
	// Durable-before-visible, and before done closes: Drain treats a
	// closed done channel as "this job is settled" and may then close the
	// journal, so the terminal record must already be on disk. If the
	// append fails the job stays pending in the WAL; its spool and work
	// dirs are kept so a restart re-runs it from its checkpoints instead
	// of finding the inputs gone.
	keepDirs := false
	if s.journal != nil && js.journalSeq != 0 {
		if err := s.journal.Final(js.journalSeq, js.id, state); err != nil {
			s.cfg.Logf("job %s: journal final: %v (job will re-run on recovery)", js.id, err)
			keepDirs = true
		}
	}
	// Clean-before-visible: a client that has read the final record must
	// not find the job's directories still there. Every output it can ask
	// for is already in js.stream; nothing reads the dirs after this.
	if !keepDirs {
		s.removeDir("job "+js.id+" spool dir", js.dir)
		s.removeDir("job "+js.id+" work dir", js.workdir)
	}
	js.mu.Lock()
	js.state = state
	js.finished = true
	js.stream = append(js.stream, StreamRecord{
		Job: js.id, Index: -1, State: state, Final: true, Recovered: js.recovered,
	})
	close(js.notify)
	js.mu.Unlock()
	close(js.done)
	if js.counted {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}
	s.cfg.Logf("job %s: %s", js.id, state)
}

// spoolInputs writes a job's uploaded inputs as a genome directory, so the
// uploaded path and the genome-dir path share Discover and Call verbatim.
func spoolInputs(dir string, spec *JobSpec) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	alnExt := "." + genomejob.AlnExt(spec.Format)
	type spoolFile struct{ name, content string }
	for _, in := range spec.Inputs {
		files := []spoolFile{
			{in.Name + ".fa", in.Ref},
			{in.Name + alnExt, in.Aln},
		}
		if in.SNP != "" {
			files = append(files, spoolFile{in.Name + ".snp", in.SNP})
		}
		for _, f := range files {
			// The spool dir outlives a crash when journaling is on: recovery
			// replays the job from these files, so a torn spool input must
			// not be possible. AtomicWrite (temp + fsync + rename) leaves
			// either the whole input or nothing.
			if err := checkpoint.AtomicWrite(filepath.Join(dir, f.name), []byte(f.content)); err != nil {
				return err
			}
		}
	}
	return nil
}

// onDequeue is the pool's dispatch hook: mark the chromosome (and its job)
// running. It runs under the pool's scheduling lock, so it must not call
// back into the pool.
func (s *Server) onDequeue(job string, index int) {
	s.mu.Lock()
	js := s.jobs[job]
	s.mu.Unlock()
	if js != nil {
		// The pool dispatches task indices; recovered jobs enqueue only
		// their unfinished units, so map back to the chromosome index.
		index = js.unitIndex(index)
		js.mu.Lock()
		if js.chroms[index].State == StatePending {
			js.chroms[index].State = StateRunning
		}
		if js.state == StateQueued {
			js.state = StateRunning
		}
		js.mu.Unlock()
	}
	if s.cfg.OnDequeue != nil {
		s.cfg.OnDequeue(job, index)
	}
}

// collect drains one job's pool results into its stream, then finalises
// the job, records a cleanly completed run into the result cache, and
// closes the job's single-flight entry.
func (s *Server) collect(js *jobState) {
	for r := range js.handle.Results() {
		idx := js.unitIndex(r.Index)
		rec := StreamRecord{
			Job: js.id, Index: idx, Name: r.Name,
			Attempts: r.Attempts, WallMS: r.Wall.Milliseconds(),
		}
		switch {
		case r.Skipped:
			rec.State = StateCancelled
			rec.Error = fmt.Sprint(r.Err)
		case r.Err != nil:
			rec.State = StateFailed
			rec.Error = r.Err.Error()
		case r.Value.res.Partial():
			rec.State = StatePartial
			rec.Sites = r.Value.res.Sites
			rec.Quarantined = len(r.Value.res.Quarantined)
			rec.CalSkipped = r.Value.res.CalSkipped
			rec.OutputB64 = r.Value.output
		default:
			rec.State = StateOK
			rec.Sites = r.Value.res.Sites
			rec.OutputB64 = r.Value.output
		}

		// Durable-before-visible: a cleanly completed chromosome is
		// checkpointed before its stream record publishes, so any
		// completion a client has observed survives a crash and is
		// checkpoint-skipped on recovery. Partial results are never
		// checkpointed — they must recompute, same as the CLI's -resume.
		if rec.State == StateOK {
			s.persistChrom(js, rec.Name, rec.OutputB64, rec.Sites)
		}

		js.mu.Lock()
		js.chroms[idx] = chromStatusOf(rec)
		js.stream = append(js.stream, rec)
		close(js.notify)
		js.notify = make(chan struct{})
		js.mu.Unlock()
	}

	js.mu.Lock()
	state := finalState(js)
	js.mu.Unlock()
	s.finalize(js, state)

	if js.key == "" {
		return
	}
	// Only a fully clean job is cacheable: partial (quarantined windows,
	// skipped calibration records), failed and cancelled runs must always
	// recompute — their bytes are not the configuration's true result.
	// The Put lands before the flight closes, so an identical submission
	// arriving now either hits the cache or joins the still-open flight;
	// there is no window where it re-executes a completed clean run.
	if state == StateDone {
		js.mu.Lock()
		recs := make([]StreamRecord, 0, len(js.stream))
		for _, rec := range js.stream {
			if rec.Final {
				continue
			}
			rec.Job = "" // rewritten to the serving job's id on replay
			// A recovered job's checkpoint-replayed chromosomes carry the
			// Recovered marker; a cache replay of the finished result is a
			// clean serve and must not.
			rec.Recovered = false
			recs = append(recs, rec)
		}
		js.mu.Unlock()
		cj := cachedJob{records: recs}
		if !s.cache.Put(js.key, cj, cj.size()) {
			s.cfg.Logf("job %s: result (%d bytes) exceeds the cache budget, not cached", js.id, cj.size())
		}
	}
	s.flights.End(js.key)
}

// finalState derives the job-level outcome from its chromosomes. Called
// with js.mu held.
func finalState(js *jobState) string {
	var ok, partial, failed, cancelled int
	for _, c := range js.chroms {
		switch c.State {
		case StateOK:
			ok++
		case StatePartial:
			partial++
		case StateFailed:
			failed++
		case StateCancelled:
			cancelled++
		}
	}
	switch {
	case js.cancelled || cancelled > 0:
		return StateCancelled
	case failed == 0 && partial == 0:
		return StateDone
	case ok == 0 && partial == 0:
		return StateFailed
	default:
		return StatePartial
	}
}

// status snapshots a job's API document.
func (js *jobState) status() JobStatus {
	js.mu.Lock()
	defer js.mu.Unlock()
	st := JobStatus{
		ID: js.id, State: js.state, Created: js.created,
		Engine: js.spec.Engine, Total: len(js.chroms),
		Chromosomes: append([]ChromStatus(nil), js.chroms...),
		Recovered:   js.recovered,
	}
	for _, c := range st.Chromosomes {
		switch c.State {
		case StatePending, StateRunning:
		default:
			st.Completed++
		}
	}
	return st
}

// cancel implements DELETE /jobs/{id}. Cancelling a single-flight
// follower detaches its mirror without touching the leader; cancelling a
// leader resolves its followers through the mirrored cancelled records.
// Cached jobs are already final, so cancel is a no-op for them.
func (s *Server) cancel(js *jobState) {
	<-js.ready
	js.mu.Lock()
	already := js.finished || js.cancelled
	if !already {
		js.cancelled = true
	}
	leader := js.leader
	js.mu.Unlock()
	if already {
		return
	}
	if leader != nil {
		close(js.stopJoin)
		s.cfg.Logf("job %s: cancel requested (detached from %s)", js.id, leader.id)
		return
	}
	if js.handle == nil {
		return // never launched
	}
	js.handle.Cancel(errJobCancelled)
	s.cfg.Logf("job %s: cancel requested", js.id)
}

// Statz is the GET /statz document: serving-layer counters for the
// result cache and single-flight dedup, plus registry size. Cache stats
// are zero-valued when the cache is disabled.
type Statz struct {
	Jobs     int  `json:"jobs"`
	Draining bool `json:"draining"`
	// ActiveJobs counts admitted jobs that have not yet finalized — the
	// numerator of the MaxQueued admission bound. MaxQueued echoes the
	// configured bound (0 = unlimited).
	ActiveJobs int `json:"active_jobs"`
	MaxQueued  int `json:"max_queued,omitempty"`
	// JournalEnabled reports whether the crash-durability job journal is
	// active; RecoveredJobs counts jobs re-enqueued from it when this
	// process started.
	JournalEnabled bool   `json:"journal_enabled,omitempty"`
	RecoveredJobs  uint64 `json:"recovered_jobs,omitempty"`
	// CacheEnabled reports whether the result cache (and single-flight
	// dedup) is active.
	CacheEnabled bool `json:"cache_enabled"`
	// Cache carries hit/miss/eviction counters and byte occupancy.
	Cache resultcache.Stats `json:"cache"`
	// SingleFlightJoins counts submissions served by joining an identical
	// in-flight job instead of executing.
	SingleFlightJoins uint64 `json:"single_flight_joins"`
}

// Statz snapshots the serving counters.
func (s *Server) Statz() Statz {
	s.mu.Lock()
	st := Statz{
		Jobs: len(s.jobs), Draining: s.draining,
		ActiveJobs: s.active, MaxQueued: s.cfg.MaxQueued,
		JournalEnabled: s.journal != nil, RecoveredJobs: s.recoveredN,
	}
	s.mu.Unlock()
	if s.cache != nil {
		st.CacheEnabled = true
		st.Cache = s.cache.Stats()
		st.SingleFlightJoins = s.flights.Joins()
	}
	return st
}

// ErrDraining is returned to submissions while the server drains.
var ErrDraining = errors.New("server is draining")

// Drain stops accepting jobs and waits for every active job to finish (or
// ctx to expire, in which case remaining jobs are cancelled). It then
// closes the pool. Safe to call once during shutdown.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	jobs := make([]*jobState, 0, len(s.jobs))
	for _, js := range s.jobs {
		//gsnplint:ignore determinism drain awaits every job whatever the order; nothing observable depends on it
		jobs = append(jobs, js)
	}
	s.mu.Unlock()

	var err error
	for _, js := range jobs {
		// done closes on every resolution path — pool execution, cache
		// replay, mirrored single-flight stream — so drain needs no
		// per-kind handling. (A follower resolves when its leader does;
		// the leader is in the same snapshot.)
		<-js.ready
		select {
		case <-js.done:
		case <-ctx.Done():
			err = ctx.Err()
			s.pool.CancelAll(fmt.Errorf("drain deadline: %w", context.Cause(ctx)))
			for _, j := range jobs {
				<-j.ready
				<-j.done
			}
		}
		if err != nil {
			break
		}
	}
	s.pool.Close()
	s.closeJournal()
	if s.ownSpool {
		s.removeDir("spool dir", s.spool)
	}
	return err
}

// closeJournal closes the WAL (idempotent; logs rather than discards the
// close error — an unsynced final record is operator-relevant).
func (s *Server) closeJournal() {
	if s.journal == nil {
		return
	}
	if err := s.journal.Close(); err != nil {
		s.cfg.Logf("journal close: %v", err)
	}
}

// Close force-stops the server: every job is cancelled, then the pool
// drains. Used for tests and forced shutdown.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.pool.CancelAll(errors.New("server shutting down"))
	s.pool.Close()
	s.closeJournal()
	if s.ownSpool {
		s.removeDir("spool dir", s.spool)
	}
}
