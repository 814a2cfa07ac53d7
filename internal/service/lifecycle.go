package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"gsnp/internal/checkpoint"
	"gsnp/internal/genomejob"
	"gsnp/internal/sched"
)

// Every job — fresh or recovered from the journal; executed, replayed from
// the cache, or mirrored from an identical job in flight — takes the one
// lifecycle in this file:
//
//	admit → run(sources…) → publish(record)… → finish(state)
//
// admit registers the job, run feeds its stream from its sources in order,
// publish is the only way a chromosome record enters the stream, and finish
// is the only way a job ends. The paths differ in nothing but the sources
// start picks for them.

// jobState is the registry entry for one job. Its stream is an append-only
// log: publish and finish append under mu and wake notify's waiters;
// followLog is how HTTP subscribers and single-flight followers read it.
type jobState struct {
	id      string
	spec    *JobSpec
	created time.Time
	dir     string // per-job spool dir for uploaded inputs ("" for genome_dir jobs)

	// ctx is cancelled (cause errJobCancelled) by DELETE /jobs/{id}; the
	// sources watch it. done closes when the job reaches a final state,
	// whatever its sources were.
	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{}

	// key is the content-addressed cache key of the flight this job leads:
	// finish records a clean result under it and closes the flight. Empty
	// for cache replays, single-flight followers and uncacheable jobs.
	key string

	// Journal state (zero-valued when the server runs without a journal).
	// journalSeq is the WAL sequence the job was accepted under; workdir
	// holds the durable per-chromosome outputs plus the checkpoint manifest
	// cp maintains, and exists only for jobs that execute; recovered marks a
	// job re-admitted from the journal after a restart.
	journalSeq int
	workdir    string
	cp         *checkpoint.Writer
	recovered  bool

	// counted marks a job charged against the MaxQueued admission bound;
	// taskUnit maps its pool task indices to chromosome indices (a recovered
	// job enqueues only the chromosomes it has no checkpoint for).
	counted  bool
	taskUnit []int

	mu       sync.Mutex
	chroms   []ChromStatus
	stream   []StreamRecord
	notify   chan struct{}
	state    string // queued | running | done | partial | failed | cancelled | cached
	finished bool
}

// errJobCancelled is the cancellation cause DELETE /jobs/{id} installs.
var errJobCancelled = errors.New("job cancelled by client")

func newJob(id string, created time.Time) *jobState {
	ctx, cancel := context.WithCancelCause(context.Background())
	return &jobState{
		id: id, created: created,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
		notify: make(chan struct{}), state: StateQueued,
	}
}

// admit registers a job: the only writer of the registry and the only
// place the admission rules are checked. executes says the job will occupy
// pool capacity, so it is charged against MaxQueued; cache replays and
// single-flight followers are not. A recovered job was admitted by the
// incarnation that journaled it and bypasses both checks.
func (s *Server) admit(js *jobState, executes bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case js.recovered:
		s.recoveredN++
	case s.draining:
		return ErrDraining
	case executes && s.cfg.MaxQueued > 0 && s.active >= s.cfg.MaxQueued:
		return ErrQueueFull
	}
	s.jobs[js.id] = js
	if executes {
		s.active++
		js.counted = true
	}
	return nil
}

// start launches an accepted job — journaled by this process or recovered
// from a previous one — on the cheapest sources that can serve it: an exact
// prior result replays from the cache, an identical job already executing
// is tailed (single-flight), and only otherwise does the job lead a flight
// and go to the pool, after replaying whatever chromosomes a previous
// incarnation checkpointed. An error means the job was refused; it has
// then been finished as failed, which journals the refusal, removes its
// directories and resolves any follower that joined it in the meantime.
func (s *Server) start(js *jobState, opts genomejob.Options, units []genomejob.Unit, digests []string) error {
	js.chroms = make([]ChromStatus, len(units))
	for i, u := range units {
		js.chroms[i] = ChromStatus{Name: u.Name, State: StatePending}
	}
	refuse := func(err error) error {
		s.finish(js, StateFailed)
		return err
	}

	var sources []source
	if s.cache != nil && digests != nil {
		key := jobKey(opts, digests)
		if cj, ok := s.cache.Get(key); ok {
			sources = []source{replay(cj.records, StateCached)}
		} else if leader, joined := s.flights.Begin(key, js); joined {
			sources = []source{tail(leader)}
			s.cfg.Logf("job %s: joined identical in-flight job %s (single-flight)", js.id, leader.id)
		} else {
			js.key = key
		}
	}
	executes := sources == nil
	if err := s.admit(js, executes); err != nil {
		return refuse(err)
	}
	if executes {
		// Only a job that makes new bytes needs somewhere durable to put
		// them.
		if s.journal != nil {
			if err := s.openWorkdir(js, opts); err != nil {
				return refuse(fmt.Errorf("%w: %v", ErrJournal, err))
			}
		}
		var checkpointed []StreamRecord
		var rest []genomejob.Unit
		for i, u := range units {
			if rec, ok := s.checkpointedChrom(js, i, u); ok {
				checkpointed = append(checkpointed, rec)
				continue
			}
			rest = append(rest, u)
			js.taskUnit = append(js.taskUnit, i)
		}
		// The registry entry exists (admit) before the pool can dispatch
		// the first task: the dequeue hook looks the job up by id.
		handle, err := s.pool.Submit(js.id, buildTasks(opts, rest))
		if err != nil {
			return refuse(err)
		}
		if js.recovered {
			s.cfg.Logf("job %s: recovered (%d of %d chromosomes from checkpoints, %d re-enqueued)",
				js.id, len(checkpointed), len(units), len(rest))
		}
		sources = []source{replay(checkpointed, ""), s.pooled(handle)}
	}
	go s.run(js, sources...)
	return nil
}

// run is the body of every job: drain the sources in order, then finish.
// The last state a source vouches for is the job's; when none does, the
// chromosome table decides, and a client's cancel overrides both.
func (s *Server) run(js *jobState, sources ...source) {
	state := ""
	for _, src := range sources {
		if st := src(js); st != "" {
			state = st
		}
	}
	switch {
	case js.ctx.Err() != nil:
		state = StateCancelled
	case state == "":
		state = finalState(js)
	}
	s.finish(js, state)
}

// publish appends one chromosome record to the job's stream under the
// job's own id: status table, log, wake-up. It is the only appender
// besides finish's Final record.
func (js *jobState) publish(rec StreamRecord) {
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

// finish moves a job to its final state, exactly once per job, in the one
// order every path through the service relies on:
//
//  1. the terminal state is journaled — before done closes, because Drain
//     treats a closed done as "settled" and may then close the journal. If
//     the append fails the job stays pending in the WAL and its directories
//     are kept, so a restart re-runs it from its checkpoints instead of
//     finding its inputs gone;
//  2. the spool and work directories are removed: a client that has read
//     the Final record must not find them, and everything it can ask for is
//     in the stream by now;
//  3. a flight leader's clean result enters the cache. Partial, failed and
//     cancelled runs never do — their bytes are not the configuration's
//     true result — and must recompute;
//  4. the Final record becomes visible and done closes;
//  5. the flight is released. The Put of step 3 came first, so an identical
//     submission arriving at any moment either joins the open flight or hits
//     the cache; there is no window in which it re-executes a clean run.
func (s *Server) finish(js *jobState, state string) {
	keepDirs := false
	if js.journalSeq != 0 {
		if err := s.journal.Final(js.journalSeq, js.id, state); err != nil {
			s.cfg.Logf("job %s: journal final: %v (job will re-run on recovery)", js.id, err)
			keepDirs = true
		}
	}
	if !keepDirs {
		s.removeDir("job "+js.id+" spool dir", js.dir)
		s.removeDir("job "+js.id+" work dir", js.workdir)
	}
	if js.key != "" && state == StateDone {
		js.mu.Lock()
		recs := append([]StreamRecord(nil), js.stream...)
		js.mu.Unlock()
		for i := range recs {
			// The serving job's id is written on replay. A checkpoint-
			// replayed chromosome carries the Recovered marker; a cache
			// replay of the finished result is a clean serve and must not.
			recs[i].Job, recs[i].Recovered = "", false
		}
		cj := cachedJob{records: recs}
		if !s.cache.Put(js.key, cj, cj.size()) {
			s.cfg.Logf("job %s: result (%d bytes) exceeds the cache budget, not cached", js.id, cj.size())
		}
	}
	if js.counted {
		s.mu.Lock()
		s.active--
		s.mu.Unlock()
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
	if js.key != "" {
		s.flights.End(js.key)
	}
	js.cancel(nil)
	s.cfg.Logf("job %s: %s", js.id, state)
}

// followLog calls emit with every record of the job's stream in order —
// what is already there, then each batch as it is appended — and returns
// nil once the batch ending in the Final record has been emitted. It stops
// early with emit's error, or with ctx's cause when ctx ends first.
func (js *jobState) followLog(ctx context.Context, emit func([]StreamRecord) error) error {
	next := 0
	for {
		js.mu.Lock()
		recs := js.stream[next:]
		finished := js.finished
		notify := js.notify
		js.mu.Unlock()
		if len(recs) > 0 {
			if err := emit(recs); err != nil {
				return err
			}
			next += len(recs)
		}
		if finished {
			return nil // finish appends the Final record and sets finished in one critical section
		}
		select {
		case <-notify:
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
}

// A source feeds one job's stream: it publishes chromosome records until
// it runs dry and returns the job state it vouches for, or "" when the
// chromosome table should decide. Cold jobs are pooled; cached jobs replay;
// joined jobs tail; recovered jobs replay their checkpoints, then pool the
// rest.
type source func(js *jobState) string

// replay publishes records that already exist: a cache entry (state
// "cached"), or the checkpointed chromosomes of a recovered job (state "").
func replay(records []StreamRecord, state string) source {
	return func(js *jobState) string {
		for _, rec := range records {
			js.publish(rec)
		}
		return state
	}
}

// tail mirrors an identical in-flight job (single-flight): everything the
// leader has emitted, then its live completions until it finishes. A clean
// leader resolves the follower as "cached"; any other outcome — including
// a leader refused before it emitted a record — is mirrored verbatim.
// Cancelling the follower ends the tail without touching the leader.
func tail(leader *jobState) source {
	return func(js *jobState) string {
		state := ""
		// The only error is the follower's own cancellation, which run
		// reads off js.ctx; state is then still "".
		_ = leader.followLog(js.ctx, func(recs []StreamRecord) error {
			for _, rec := range recs {
				if rec.Final {
					state = rec.State
				} else {
					js.publish(rec)
				}
			}
			return nil
		})
		if state == StateDone {
			return StateCached
		}
		return state
	}
}

// pooled drains the job's pool results: the only source that makes new
// bytes, so the only one that persists them. Cancelling the job cancels
// its pool tasks — undispatched chromosomes resolve as skipped, running
// ones abort at their next window boundary.
func (s *Server) pooled(handle *sched.Job[chromResult]) source {
	return func(js *jobState) string {
		stop := context.AfterFunc(js.ctx, func() { handle.Cancel(context.Cause(js.ctx)) })
		defer stop()
		for r := range handle.Results() {
			rec := StreamRecord{
				Index: js.taskUnit[r.Index], Name: r.Name,
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
				// Durable-before-visible: a clean chromosome is checkpointed
				// before its record publishes. Partial results never are —
				// they must recompute, same as the CLI's -resume.
				s.persistChrom(js, rec.Name, rec.OutputB64, rec.Sites)
			}
			js.publish(rec)
		}
		return ""
	}
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

// checkpointedChrom returns the stream record of a chromosome a previous
// incarnation completed durably. Done re-verifies the recorded digest
// before the bytes are trusted; a tampered, torn or unreadable output just
// means the chromosome runs again.
func (s *Server) checkpointedChrom(js *jobState, index int, u genomejob.Unit) (StreamRecord, bool) {
	if js.cp == nil {
		return StreamRecord{}, false
	}
	ce, ok := js.cp.Done(u.Name)
	if !ok {
		return StreamRecord{}, false
	}
	out, err := os.ReadFile(filepath.Join(js.workdir, ce.Output))
	if err != nil {
		s.cfg.Logf("job %s: checkpointed output %s unreadable (%v), recomputing", js.id, u.Name, err)
		return StreamRecord{}, false
	}
	return StreamRecord{
		Index: index, Name: u.Name, State: StateOK,
		Sites: ce.Sites, OutputB64: out, Recovered: true,
	}, true
}

// openWorkdir creates the job's durable work directory and checkpoint
// writer; a recovered job resumes the entries its previous incarnation
// completed. A corrupt or mismatched manifest costs durability, not
// correctness: it is wiped and every chromosome recomputes.
func (s *Server) openWorkdir(js *jobState, opts genomejob.Options) error {
	js.workdir = s.journal.WorkDir(js.id)
	if err := os.MkdirAll(js.workdir, 0o755); err != nil {
		return err
	}
	path := checkpoint.Path(js.workdir)
	cp, err := checkpoint.NewWriter(path, opts.Fingerprint(), js.recovered)
	if err != nil {
		s.cfg.Logf("job %s: recovery checkpoint: %v (recomputing all chromosomes)", js.id, err)
		if rerr := os.Remove(path); rerr != nil && !os.IsNotExist(rerr) {
			return fmt.Errorf("removing bad checkpoint: %w", rerr)
		}
		if cp, err = checkpoint.NewWriter(path, opts.Fingerprint(), false); err != nil {
			return err
		}
	}
	js.cp = cp
	return nil
}

// finalState derives the job-level outcome from its chromosomes.
func finalState(js *jobState) string {
	js.mu.Lock()
	defer js.mu.Unlock()
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
	case cancelled > 0:
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
