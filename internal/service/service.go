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
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gsnp/internal/checkpoint"
	"gsnp/internal/genomejob"
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
	// JournalDir is the server's one directory, and required: every
	// accepted job is journaled (write-ahead, fsync'd) before it is
	// acknowledged, uploaded inputs spool under it so they survive
	// restarts, each clean chromosome is journaled (stored file + chrom
	// record) before it is published, the result store lives in its store
	// subdirectory, and New replays the journal to re-enqueue jobs a crash
	// interrupted — journaled chromosomes are served, not re-executed, and
	// outputs stay byte-identical to an uninterrupted run.
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
	// 256 MiB). Jobs that finished clean are kept up to this budget,
	// charged at the length of the base64 text their streams keep in the
	// result store, so it bounds the disk the cache pins; an identical
	// resubmission tails the kept job instead of executing.
	CacheBytes int64

	// fs is the durable-write seam every change to the spool and the
	// journal goes through (nil selects checkpoint.OS); the package's tests
	// substitute one that fails or stops at a chosen operation.
	fs checkpoint.FS
}

// chromResult is one chromosome's in-memory outcome inside the pool. output
// comes from outBufs; pooled returns it once the bytes are stored.
type chromResult struct {
	output *bytes.Buffer
	res    *pipeline.Report
}

// outBufs recycles the buffers pool tasks write chromosome outputs into, so
// the process does not hold one output buffer, growth slack included, per
// chromosome it has run.
var outBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// recordOverhead is the per-record byte charge beyond the variable-size
// fields, approximating the struct + JSON framing so the cache budget
// tracks real memory, not just payload bytes.
const recordOverhead = 128

// resultSize is the cache byte charge for a finished job: the stored text
// its stream pins, plus the per-record overhead.
func resultSize(recs []logRecord) int64 {
	n := int64(0)
	for _, r := range recs {
		n += recordOverhead + int64(r.out.n) + int64(len(r.Name)) + int64(len(r.Error))
	}
	return n
}

// maxFinishedJobs is how many finished jobs the registry remembers; past
// it, the oldest finished job is forgotten (404) and its stream's store
// references are released.
const maxFinishedJobs = 100

// Server owns the shared worker pool and the job registry.
type Server struct {
	cfg  Config
	pool *sched.Pool[chromResult, *genomejob.Worker]

	// journal is the crash-durability WAL; store holds every payload the
	// server serves, under the journal directory.
	journal *journal.Journal
	store   *store

	// cache maps a job's content key to the finished flight leader that
	// produced its clean result; each entry holds its job.
	cache *resultcache.Cache[*jobState]

	// mu guards the registry, the flights and every job's holds. A cache
	// lookup and a single-flight join each take their hold on the job they
	// find under it, so no release can come between finding a job and
	// holding it. A cache store runs outside it: the eviction callback
	// takes it to let go of the evicted job.
	mu   sync.Mutex
	jobs map[string]*jobState
	// finished lists the registered finished jobs, oldest first.
	finished []*jobState
	seq      int
	draining bool
	// active counts admitted jobs that execute and have not finished — the
	// MaxQueued admission bound. A job that tails another never counts
	// (it occupies no pool capacity).
	active int
	// recoveredN counts jobs re-admitted from the journal this process.
	recoveredN uint64
	// flights maps the content key of each executing job that leads a
	// flight to that job, so identical concurrent submissions share one
	// run; joins counts the submissions that joined one.
	flights map[string]*jobState
	joins   uint64

	// encodes counts encodeOutput's calls: one per chromosome payload a
	// pool task made.
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
	if cfg.JournalDir == "" {
		return nil, errors.New("service: Config needs a JournalDir")
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 256 << 20
	}
	s := &Server{cfg: cfg, jobs: make(map[string]*jobState), flights: make(map[string]*jobState)}
	s.cache = resultcache.NewEvicting(cfg.CacheBytes, s.unhold)
	var err error
	if s.journal, err = journal.Open(journal.Config{Dir: cfg.JournalDir, FS: cfg.fs, Logf: cfg.Logf}); err != nil {
		return nil, err
	}
	s.seq = s.journal.MaxSeq()
	keep := map[string]bool{} // the stored files pending jobs name
	for _, e := range s.journal.Pending() {
		for _, c := range e.Chroms {
			keep[c.SHA256] = true
		}
	}
	if s.store, err = openStore(cfg.fs, filepath.Join(cfg.JournalDir, "store"), keep, cfg.Logf); err != nil {
		s.journal.Close()
		return nil, err
	}
	s.pool = sched.NewPool[chromResult, *genomejob.Worker](sched.PoolConfig{
		Workers:   cfg.Workers,
		Policy:    genomejob.Policy(cfg.Retries, cfg.RetryBackoff, cfg.TaskTimeout),
		OnDequeue: s.onDequeue,
	}, func(int) *genomejob.Worker { return new(genomejob.Worker) })
	s.recoverPending()
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
	// it tailed an identical job, finished (a cache hit) or still running
	// (a single-flight join), that completed cleanly. Clients distinguishing replays
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
	// stored once in its place (logRecord); a client decodes it as usual.
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
	// spool is an upload's spool directory. Until the job is journaled
	// nothing else removes it; a removal failure is leaked disk the
	// operator should hear about.
	spool := ""
	fail := func(err error) (*jobState, error) {
		if spool != "" {
			if rerr := s.cfg.fs.RemoveAll(spool); rerr != nil {
				s.cfg.Logf("removing job %s spool dir %s: %v", js.id, spool, rerr)
			}
		}
		return nil, err
	}

	// Uploaded inputs are spooled as a genome directory, so both kinds of
	// job share Discover and Call verbatim.
	dir := spec.GenomeDir
	if dir == "" {
		spool = s.journal.SpoolDir(js.id)
		dir = spool
		if err := s.spoolInputs(dir, spec); err != nil {
			return fail(fmt.Errorf("%w: %v", ErrSpool, err))
		}
		// The spool holds the inputs now; the job, which the registry and
		// the cache may keep long after it ran, keeps no copy.
		spec.Inputs = nil
	}
	units, _, err := genomejob.Discover(dir, spec.Options)
	if err != nil {
		return fail(err)
	}
	if len(units) == 0 {
		return fail(fmt.Errorf("job has no runnable chromosomes"))
	}

	// Content digests are the result-cache key and the journal's recorded
	// input identity (what recovery re-validates against). An unhashable
	// input (e.g. a file racing deletion) refuses the job: the journal
	// cannot promise to recover inputs it could not hash.
	digests, err := genomejob.UnitDigests(units)
	if err != nil {
		return fail(fmt.Errorf("hashing inputs for the job journal: %w", err))
	}

	// Write-ahead: the job is journaled durably before the client sees
	// its 202 — whatever will serve it, so every accepted job is on disk.
	// An append failure fails this one job cleanly (the server keeps
	// serving); nothing was acknowledged, nothing recovers.
	if err := s.journalAccept(js, seq, digests); err != nil {
		return fail(fmt.Errorf("%w: %w", ErrJournal, err))
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
				res, err := wk.Call(ctx, opts, u, buf, nil)
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

// journalAccept records the job in the WAL. The spec carries no uploaded
// input bodies by now — they live in the journal-owned spool directory,
// which survives restarts.
func (s *Server) journalAccept(js *jobState, seq int, digests []string) error {
	raw, err := json.Marshal(js.spec)
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
			// The spool dir outlives a crash: recovery replays the job from
			// these files, so a torn spool input must not be possible. The
			// seam's atomic write leaves either the whole input or nothing.
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
// result cache and single-flight dedup, plus registry size.
type Statz struct {
	Jobs     int  `json:"jobs"`
	Draining bool `json:"draining"`
	// ActiveJobs counts admitted jobs that have not yet finalized — the
	// numerator of the MaxQueued admission bound. MaxQueued echoes the
	// configured bound (0 = unlimited).
	ActiveJobs int `json:"active_jobs"`
	MaxQueued  int `json:"max_queued,omitempty"`
	// RecoveredJobs counts jobs re-enqueued from the journal when this
	// process started.
	RecoveredJobs uint64 `json:"recovered_jobs,omitempty"`
	// Cache carries hit/miss/eviction counters and byte occupancy.
	Cache resultcache.Stats `json:"cache"`
	// SingleFlightJoins counts submissions served by joining an identical
	// in-flight job instead of executing.
	SingleFlightJoins uint64 `json:"single_flight_joins"`
	// Store counts the result store's files and their bytes on disk.
	Store StoreStats `json:"store"`
}

// Statz snapshots the serving counters.
func (s *Server) Statz() Statz {
	s.mu.Lock()
	st := Statz{
		Jobs: len(s.jobs), Draining: s.draining,
		ActiveJobs: s.active, MaxQueued: s.cfg.MaxQueued,
		RecoveredJobs: s.recoveredN, SingleFlightJoins: s.joins,
	}
	s.mu.Unlock()
	st.Store = s.store.snapshot()
	st.Cache = s.cache.Stats()
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
	s.shutdown()
}
