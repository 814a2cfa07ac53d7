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
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gsnp/internal/checkpoint"
	"gsnp/internal/genomejob"
	"gsnp/internal/journal"
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
	// SpoolDir is where uploaded inputs are materialised; required unless
	// JournalDir is set, in which case it is ignored — the journal owns the
	// spool so uploads survive restarts.
	SpoolDir string
	// JournalDir enables crash durability: every accepted job is
	// journaled (write-ahead, fsync'd) before it is acknowledged,
	// uploaded inputs spool under the journal so they survive restarts,
	// each clean chromosome is journaled (output file + chrom record)
	// before it is published, and New replays the journal to re-enqueue
	// jobs a crash interrupted — journaled chromosomes are served, not
	// re-executed, and outputs stay byte-identical to an uninterrupted
	// run. Empty disables journaling (jobs die with the process, as before).
	JournalDir string
	// MaxQueued bounds admission: when that many admitted jobs are still
	// unfinished, new submissions are rejected with ErrQueueFull (HTTP
	// 429 + Retry-After) instead of growing the backlog without bound.
	// 0 = unlimited. Recovered jobs bypass the bound (they were already
	// admitted) but count against it.
	MaxQueued int
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
	// budget, charged at the length of their base64 text, and replayed
	// exactly for identical resubmissions.
	CacheBytes int64
	// CacheOff disables the result cache and single-flight dedup: every
	// submission executes on the pool.
	CacheOff bool

	// fs is the durable-write seam every change to the spool and the
	// journal goes through (nil selects checkpoint.OS); the package's tests
	// substitute one that fails or stops at a chosen operation.
	fs checkpoint.FS
}

// chromResult is one chromosome's in-memory outcome inside the pool. output
// comes from outBufs; pooled returns it once the bytes are journaled and
// encoded.
type chromResult struct {
	output *bytes.Buffer
	res    genomejob.Result
}

// outBufs recycles the buffers pool tasks write chromosome outputs into, so
// the process does not hold one output buffer, growth slack included, per
// chromosome it has run.
var outBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// cachedJob is one completed job's replayable output: its chromosome
// stream records (Job field cleared; rewritten to the new id on replay).
// Records are immutable once cached.
type cachedJob struct {
	records []logRecord
}

// recordOverhead is the per-record byte charge beyond the variable-size
// fields, approximating the struct + JSON framing so the cache budget
// tracks real memory, not just payload bytes.
const recordOverhead = 128

// size is the cache byte charge for a cached job: the kept text, which is
// all the entry holds of a payload, plus the per-record overhead.
func (cj cachedJob) size() int64 {
	n := int64(0)
	for _, r := range cj.records {
		n += recordOverhead + int64(len(r.b64)) + int64(len(r.Name)) + int64(len(r.Error))
	}
	return n
}

// Server owns the shared worker pool and the job registry.
type Server struct {
	cfg   Config
	pool  *sched.Pool[chromResult, *genomejob.Worker]
	spool string

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
	// active counts admitted jobs that execute and have not finished — the
	// MaxQueued admission bound. Cache replays and single-flight
	// followers never count (they occupy no pool capacity).
	active int
	// recoveredN counts jobs re-admitted from the journal this process.
	recoveredN uint64

	// encodes counts encodeOutput's calls: one per chromosome payload that
	// entered this process.
	encodes atomic.Int64
}

// ErrQueueFull is returned to submissions when MaxQueued unfinished jobs
// are already admitted; clients should back off and retry (HTTP 429).
var ErrQueueFull = errors.New("job queue is full")

// ErrJournal wraps journal-append failures: the one submission fails
// cleanly (HTTP 500) while the server keeps serving every other job.
var ErrJournal = errors.New("job journal write failed")

// ErrSpool wraps failures to write a job's uploaded inputs to the spool
// (disk full, unwritable directory): the request was fine, the server's
// disk was not (HTTP 500), and nothing of the job is left behind.
var ErrSpool = errors.New("spooling job inputs failed")

// New builds the server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.fs == nil {
		cfg.fs = checkpoint.OS
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
	switch {
	case cfg.JournalDir != "":
		jn, err := journal.Open(journal.Config{Dir: cfg.JournalDir, FS: cfg.fs, Logf: cfg.Logf})
		if err != nil {
			return nil, err
		}
		s.journal = jn
		s.seq = jn.MaxSeq()
		// The journal owns the spool: uploaded inputs must survive a
		// restart, so they live in named per-job directories under the
		// journal.
		s.spool = filepath.Join(cfg.JournalDir, "spool")
	case cfg.SpoolDir != "":
		if err := cfg.fs.MkdirAll(cfg.SpoolDir); err != nil {
			return nil, err
		}
		s.spool = cfg.SpoolDir
	default:
		return nil, errors.New("service: Config needs a JournalDir or a SpoolDir")
	}
	s.pool = sched.NewPool[chromResult, *genomejob.Worker](sched.PoolConfig{
		Workers:   cfg.Workers,
		Policy:    genomejob.Policy(cfg.Retries, cfg.RetryBackoff, cfg.TaskTimeout),
		OnDequeue: s.onDequeue,
	}, func(int) *genomejob.Worker { return new(genomejob.Worker) })
	if s.journal != nil {
		s.recoverPending()
	}
	return s, nil
}

// Job/chromosome states reported over the API. A chromosome's final state
// is one of genomejob's; the job's is done, partial, failed, cancelled or
// cached.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateOK        = genomejob.StateOK // chromosome-level success
	StatePartial   = genomejob.StatePartial
	StateFailed    = genomejob.StateFailed
	StateCancelled = genomejob.StateCancelled
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
	genomejob.Outcome
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
	Job   string `json:"job"`
	Index int    `json:"index"`
	genomejob.Outcome
	// OutputB64 carries the chromosome's result bytes (text rows, or the
	// compressed container under Compress), base64 on the wire. The server
	// leaves it empty in the records it keeps and writes the text it
	// encoded once in its place (logRecord); a client decodes it as usual.
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

// submit accepts one parsed job spec: its inputs are materialised, hashed
// and journaled, then start launches it. A draining server refuses first,
// before any of that; admit stays the authoritative check. Caller must
// not hold s.mu.
func (s *Server) submit(spec *JobSpec) (*jobState, error) {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.seq++
	seq := s.seq
	s.mu.Unlock()
	//gsnplint:ignore determinism arrival timestamp is job metadata for listing order, never part of a result stream
	js := newJob(fmt.Sprintf("j%d", seq), time.Now())
	js.spec = spec
	fail := func(err error) (*jobState, error) {
		s.removeDir("job "+js.id+" spool dir", js.dir)
		return nil, err
	}

	// Uploaded inputs are spooled as a genome directory, so both kinds of
	// job share Discover and Call verbatim.
	dir := spec.GenomeDir
	if dir == "" {
		js.dir = filepath.Join(s.spool, js.id)
		dir = js.dir
		if err := s.spoolInputs(dir, spec); err != nil {
			return fail(fmt.Errorf("%w: %v", ErrSpool, err))
		}
	}
	units, _, err := genomejob.Discover(dir, spec.Options)
	if err != nil {
		return fail(err)
	}
	if len(units) == 0 {
		return fail(fmt.Errorf("job has no runnable chromosomes"))
	}

	// Content digests feed two consumers: the result-cache key and the
	// journal's recorded input identity (what recovery re-validates
	// against). An unhashable input (e.g. a file racing deletion) makes
	// the job uncacheable and falls through to normal execution — unless
	// a journal must record it, in which case the job is refused: the
	// journal cannot promise to recover inputs it could not hash.
	var digests []string
	if s.cache != nil || s.journal != nil {
		digests, err = genomejob.UnitDigests(units)
		if err != nil {
			if s.journal != nil {
				return fail(fmt.Errorf("hashing inputs for the job journal: %w", err))
			}
			s.cfg.Logf("job %s: uncacheable inputs: %v", js.id, err)
			digests = nil
		}
	}

	// Write-ahead: the job is journaled durably before the client sees
	// its 202 — whatever will serve it, so every accepted job is on disk.
	// An append failure fails this one job cleanly (the server keeps
	// serving); nothing was acknowledged, nothing recovers.
	if s.journal != nil {
		if err := s.journalAccept(js, seq, digests); err != nil {
			return fail(fmt.Errorf("%w: %w", ErrJournal, err))
		}
	}
	if err := s.start(js, units, digests); err != nil {
		return nil, err
	}
	s.cfg.Logf("job %s: submitted (%d chromosomes, engine %s)", js.id, len(units), spec.Engine)
	return js, nil
}

// buildTasks maps units onto pool tasks.
func buildTasks(opts genomejob.Options, units []genomejob.Unit) []sched.Task[chromResult, *genomejob.Worker] {
	tasks := make([]sched.Task[chromResult, *genomejob.Worker], len(units))
	for i, u := range units {
		u := u
		tasks[i] = sched.Task[chromResult, *genomejob.Worker]{
			Name: u.Name,
			Run: func(ctx context.Context, wk *genomejob.Worker) (chromResult, error) {
				buf := outBufs.Get().(*bytes.Buffer)
				buf.Reset()
				res, err := wk.Call(ctx, opts, u, buf, io.Discard)
				if err != nil {
					outBufs.Put(buf)
					return chromResult{}, err
				}
				return chromResult{output: buf, res: res}, nil
			},
		}
	}
	return tasks
}

// journalAccept records the job in the WAL. Uploaded input bodies are
// stripped from the journaled spec — they live in the journal-owned spool
// directory, which survives restarts.
func (s *Server) journalAccept(js *jobState, seq int, digests []string) error {
	walSpec := *js.spec
	walSpec.Inputs = nil
	raw, err := json.Marshal(&walSpec)
	if err != nil {
		return err
	}
	if err := s.journal.Accept(journal.Entry{
		Seq: seq, Job: js.id, Spec: raw,
		Fingerprint: js.spec.Fingerprint(), Digests: digests,
		Created: js.created,
	}); err != nil {
		return err
	}
	js.journalSeq = seq
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

// removeDir removes a directory tree, logging (not discarding) removal
// failures: a leftover spool or work directory is leaked disk the
// operator should hear about, and the failure mode (EACCES, busy mounts)
// is actionable. An empty path is a no-op.
func (s *Server) removeDir(what, dir string) {
	if dir == "" {
		return
	}
	if err := s.cfg.fs.RemoveAll(dir); err != nil {
		s.cfg.Logf("removing %s %s: %v", what, dir, err)
	}
}

// spoolInputs writes a job's uploaded inputs as a genome directory.
func (s *Server) spoolInputs(dir string, spec *JobSpec) error {
	if err := s.cfg.fs.MkdirAll(dir); err != nil {
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
			// not be possible. The seam's atomic write leaves either the
			// whole input or nothing.
			if err := s.cfg.fs.WriteFile(filepath.Join(dir, f.name), []byte(f.content)); err != nil {
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
		// The pool dispatches task indices; map back to the chromosome.
		index = js.taskUnit[index]
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

// cancel implements DELETE /jobs/{id}: the job's sources see its context
// end. Cancelling a single-flight follower ends its tail without touching
// the leader; cancelling a leader resolves its followers through the
// mirrored cancelled records. On a finished job it is a no-op.
func (s *Server) cancel(js *jobState) {
	js.cancel(errJobCancelled)
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
		// done closes on every job, whatever its sources; a follower
		// resolves when its leader does, and the leader is in the same
		// snapshot.
		select {
		case <-js.done:
		case <-ctx.Done():
			err = ctx.Err()
			s.pool.CancelAll(fmt.Errorf("drain deadline: %w", context.Cause(ctx)))
			for _, j := range jobs {
				<-j.done
			}
		}
		if err != nil {
			break
		}
	}
	s.shutdown()
	return err
}

// shutdown closes the pool and the WAL — logging rather than discarding
// the close error, an unsynced final record is operator-relevant.
// Idempotent.
func (s *Server) shutdown() {
	s.pool.Close()
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.cfg.Logf("journal close: %v", err)
		}
	}
}

// Close force-stops the server: every job is cancelled, then the pool
// drains. Used for tests and forced shutdown.
func (s *Server) Close() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.pool.CancelAll(errors.New("server shutting down"))
	s.shutdown()
}
