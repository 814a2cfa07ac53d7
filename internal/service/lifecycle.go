package service

import (
	"context"
	"errors"
	"sync"
	"time"

	"gsnp/internal/genomejob"
	"gsnp/internal/journal"
	"gsnp/internal/sched"
)

// Every job — fresh or recovered from the journal; executed, or served by
// an identical job that is still running (single-flight) or already
// finished (the result cache) — takes the one lifecycle in this file:
//
//	admit → run(source) → publish(record)… → finish(state)
//
// admit registers the job, run feeds its stream from its one source,
// publish is the only way a chromosome record enters the stream, and finish
// is the only way a job ends. A job's source is the pool, or the tail of
// another job with the same content key: a cache hit and a single-flight
// join differ only in the counter they bump.

// jobState is the registry entry for one job. Its stream is an append-only
// log: publish and finish append under mu and wake notify's waiters;
// followLog is how HTTP subscribers and single-flight followers read it.
type jobState struct {
	id      string
	spec    *JobSpec
	created time.Time

	// ctx is cancelled (cause errJobCancelled) by DELETE /jobs/{id}; the
	// sources watch it. done closes when the job reaches a final state,
	// whatever its sources were.
	ctx    context.Context
	cancel context.CancelCauseFunc
	done   chan struct{}

	// key is the content-addressed cache key of the flight this job leads:
	// finish caches the job under it when it ends clean and closes the
	// flight. Empty for a job that tails another.
	key string

	// journalSeq is the WAL sequence the job was accepted under; recovered
	// marks a job re-admitted from the journal after a restart, and durable
	// lists the chromosomes its previous incarnation made durable.
	journalSeq int
	recovered  bool
	durable    map[string]journal.Chrom

	// counted marks a job charged against the MaxQueued admission bound;
	// taskUnit maps its pool task indices to chromosome indices (a recovered
	// job enqueues only the chromosomes it has no checkpoint for).
	counted  bool
	taskUnit []int

	// holds counts, under Server.mu, who can still read the stream: the
	// registry, the result cache, each client streaming it and each job
	// tailing it. The last to let go releases the stream's store
	// references.
	holds int

	mu       sync.Mutex
	chroms   []ChromStatus
	stream   []logRecord
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
// pool capacity, so it is charged against MaxQueued; a job that tails
// another is not. A recovered job was admitted by the
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
	js.holds++
	if executes {
		s.active++
		js.counted = true
	}
	return nil
}

// start launches an accepted job — journaled by this process or recovered
// from a previous one — on the cheapest source that can serve it: an
// identical job, finished clean (a cache hit) or still executing
// (single-flight), is held and tailed; only otherwise does the job lead a
// flight and go to the pool, after publishing whatever chromosomes a
// previous incarnation journaled. An error means the job was refused; it
// has then been finished as failed, which journals the refusal, removes its
// spool directory and resolves any follower that joined it in the meantime.
func (s *Server) start(js *jobState, units []genomejob.Unit, digests []string) error {
	js.chroms = make([]ChromStatus, len(units))
	for i, u := range units {
		js.chroms[i].Name, js.chroms[i].State = u.Name, StatePending
	}
	key := jobKey(js.spec.Options, digests)
	s.mu.Lock()
	leader, hit := s.cache.Get(key)
	if !hit {
		if leader = s.flights[key]; leader != nil {
			s.joins++
		} else {
			s.flights[key] = js
			js.key = key
		}
	}
	if leader != nil {
		leader.holds++
	}
	s.mu.Unlock()
	if err := s.admit(js, leader == nil); err != nil {
		if leader != nil {
			s.unhold(leader)
		}
		s.finish(js, StateFailed)
		return err
	}
	if leader != nil {
		s.cfg.Logf("job %s: tails identical job %s (cache hit %t)", js.id, leader.id, hit)
		go s.run(js, s.tail(leader))
		return nil
	}

	var checkpointed []logRecord
	var rest []genomejob.Unit
	for i, u := range units {
		if c, ok := js.durable[u.Name]; ok {
			// Hashed as a stream against its digest, never read into
			// memory; a tampered, torn or missing file just runs again.
			out, err := s.store.adopt(c.SHA256)
			if err == nil {
				checkpointed = append(checkpointed, logRecord{
					StreamRecord: StreamRecord{Index: i, Recovered: true,
						Outcome: genomejob.Outcome{Name: u.Name, State: StateOK, Sites: c.Sites}},
					out: out,
				})
				continue
			}
			s.cfg.Logf("job %s: durable output of %s unusable (%v), recomputing", js.id, u.Name, err)
		}
		rest = append(rest, u)
		js.taskUnit = append(js.taskUnit, i)
	}
	// The registry entry exists (admit) before the pool can dispatch the
	// first task: the dequeue hook looks the job up by id.
	handle, err := s.pool.Submit(js.ctx, js.id, buildTasks(js.spec.Options, rest))
	if err != nil {
		s.release(checkpointed)
		s.finish(js, StateFailed)
		return err
	}
	for _, rec := range checkpointed {
		js.publish(rec)
	}
	if js.recovered {
		s.cfg.Logf("job %s: recovered (%d of %d chromosomes from checkpoints, %d re-enqueued)",
			js.id, len(checkpointed), len(units), len(rest))
	}
	go s.run(js, s.pooled(handle))
	return nil
}

// run is the body of every job: drain its source, then finish. The state
// the source vouches for is the job's; when it vouches for none, the
// chromosome table decides, and a client's cancel overrides both.
func (s *Server) run(js *jobState, src source) {
	state := src(js)
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
// besides finish's Final record, and the job takes over the store
// reference rec carries.
func (js *jobState) publish(rec logRecord) {
	rec.Job = js.id
	js.mu.Lock()
	js.chroms[rec.Index] = ChromStatus{Outcome: rec.Outcome, Recovered: rec.Recovered}
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
//     treats a closed done as "settled" and may then close the journal —
//     and Final removes the job's spool directory: a client that has read
//     the Final record must not find it, and everything it can ask for is
//     in the stream by now. If the append
//     fails the job stays pending in the WAL and its spool is kept, so a
//     restart re-runs it from its durable chromosomes instead of finding
//     its inputs gone;
//  2. a flight leader that ran clean enters the cache, which holds the job
//     itself until it is evicted. Partial, failed and cancelled runs never
//     do — their bytes are not the configuration's true result — and must
//     recompute. Put runs outside s.mu: its eviction callback takes it;
//  3. a leader that did not run clean releases its flight, so an identical
//     submission from here on executes afresh instead of tailing a degraded
//     result; and a registered job makes room for itself in the finished
//     list: the oldest finished jobs past maxFinishedJobs are forgotten,
//     and what only they held is released;
//  4. the Final record becomes visible and done closes;
//  5. a clean leader's flight is released. The Put of step 2 came first, so
//     an identical submission arriving at any moment tails this job,
//     through the open flight or the cache; there is no window in which it
//     re-executes a clean run.
//     Only then does the job join the finished list, so a job is never
//     forgotten while a follower can still join it.
func (s *Server) finish(js *jobState, state string) {
	if err := s.journal.Final(js.journalSeq, js.id, state); err != nil {
		s.cfg.Logf("job %s: journal final: %v (job will re-run on recovery)", js.id, err)
	}
	if js.key != "" && state == StateDone {
		js.mu.Lock()
		size := resultSize(js.stream)
		js.mu.Unlock()
		s.mu.Lock()
		js.holds++ // the cache entry's
		s.mu.Unlock()
		if !s.cache.Put(js.key, js, size) {
			s.unhold(js)
			s.cfg.Logf("job %s: result (%d bytes) exceeds the cache budget, not cached", js.id, size)
		}
	}
	var forgotten []*jobState
	s.mu.Lock()
	if js.counted {
		s.active--
	}
	if js.key != "" && state != StateDone {
		delete(s.flights, js.key)
	}
	registered := s.jobs[js.id] == js
	for registered && len(s.finished) >= maxFinishedJobs {
		forgotten = append(forgotten, s.finished[0])
		delete(s.jobs, s.finished[0].id)
		s.finished[0] = nil // the backing array must not keep it alive
		s.finished = s.finished[1:]
	}
	s.mu.Unlock()
	for _, old := range forgotten {
		s.unhold(old) // the registry's hold
	}
	js.mu.Lock()
	js.state = state
	js.finished = true
	js.stream = append(js.stream, logRecord{StreamRecord: StreamRecord{
		Job: js.id, Index: -1, Outcome: genomejob.Outcome{State: state}, Final: true, Recovered: js.recovered,
	}})
	close(js.notify)
	js.mu.Unlock()
	close(js.done)
	s.mu.Lock()
	if js.key != "" && state == StateDone {
		delete(s.flights, js.key)
	}
	if registered {
		s.finished = append(s.finished, js)
	}
	s.mu.Unlock()
	js.cancel(nil)
	s.cfg.Logf("job %s: %s", js.id, state)
}

// followLog calls emit with every record of the job's stream in order —
// what is already there, then each batch as it is appended — and returns
// nil once the batch ending in the Final record has been emitted. It stops
// early with emit's error, or with ctx's cause when ctx ends first.
func (js *jobState) followLog(ctx context.Context, emit func([]logRecord) error) error {
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
// chromosome table should decide. An executing job is pooled; any other
// tails the identical job that executes, or executed, for it.
type source func(js *jobState) string

// tail mirrors an identical job: everything the leader has emitted, then
// its live completions until it finishes — all at once when it already
// has (a cache hit). A clean leader resolves the follower as "cached"; any
// other outcome — including a leader refused before it emitted a record —
// is mirrored verbatim. Cancelling the follower ends the tail without
// touching the leader. The follower holds the leader (start took the
// hold) until the tail ends.
func (s *Server) tail(leader *jobState) source {
	return func(js *jobState) string {
		defer s.unhold(leader)
		state := ""
		// The only error is the follower's own cancellation, which run
		// reads off js.ctx; state is then still "".
		_ = leader.followLog(js.ctx, func(recs []logRecord) error {
			for _, rec := range recs {
				if rec.Final {
					state = rec.State
					continue
				}
				// A chromosome the leader served from its checkpoint is,
				// to the follower, a clean serve like any other.
				rec.Recovered = false
				s.store.acquire(rec.out)
				js.publish(rec)
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
// bytes, so the only one that stores them, and the place they are encoded.
// The pool job runs under js.ctx, so cancelling the job cancels its pool
// tasks — undispatched chromosomes resolve as skipped, running ones abort
// at their next window boundary.
func (s *Server) pooled(handle *sched.Job[chromResult]) source {
	return func(js *jobState) string {
		for r := range handle.Results() {
			rec := logRecord{StreamRecord: StreamRecord{
				Index: js.taskUnit[r.Index], Outcome: genomejob.Classify(r.Result, r.Value.res),
			}}
			if out := r.Value.output; out != nil {
				ref, err := s.store.put(s.encodeOutput(out.Bytes()))
				// Stored: nothing refers to the raw bytes now.
				outBufs.Put(out)
				rec.out = ref
				if err != nil {
					// Without its file there is nothing to serve: the
					// chromosome fails, and a resubmission recomputes it.
					rec.Outcome = genomejob.Outcome{Name: rec.Name, State: StateFailed, Attempts: rec.Attempts,
						WallMS: rec.WallMS, Error: "storing the result: " + err.Error()}
				}
			}
			// Durable-before-visible: a clean chromosome's stored file is
			// named in the journal before its record publishes; a failure
			// only means it recomputes after a restart. Partial results never
			// are journaled — they must recompute, same as the CLI's -resume.
			if rec.State == StateOK {
				c := journal.Chrom{File: js.spec.OutName(rec.Name), SHA256: rec.out.digest, Sites: rec.Sites}
				if err := s.journal.Complete(js.journalSeq, js.id, rec.Name, c); err != nil {
					s.cfg.Logf("job %s: persisting %s: %v (it recomputes after a restart)", js.id, rec.Name, err)
				}
			}
			js.publish(rec)
		}
		return ""
	}
}

// release drops a store reference for each of recs' payloads.
func (s *Server) release(recs []logRecord) {
	for i := range recs {
		s.store.release(recs[i].out)
	}
}

// unhold lets go of one hold on js; the last releases its stream's store
// references. Nothing can hold js again by then: it has left the registry,
// its flight and the cache.
func (s *Server) unhold(js *jobState) {
	s.mu.Lock()
	js.holds--
	last := js.holds == 0
	s.mu.Unlock()
	if last {
		js.mu.Lock()
		recs := js.stream
		js.mu.Unlock()
		s.release(recs)
	}
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
