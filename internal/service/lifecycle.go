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
// incarnation journaled. An error means the job was refused; it has
// then been finished as failed, which journals the refusal, removes its
// directories and resolves any follower that joined it in the meantime.
func (s *Server) start(js *jobState, units []genomejob.Unit, digests []string) error {
	js.chroms = make([]ChromStatus, len(units))
	for i, u := range units {
		js.chroms[i].Name, js.chroms[i].State = u.Name, StatePending
	}
	refuse := func(err error) error {
		s.finish(js, StateFailed)
		return err
	}

	var sources []source
	if s.cache != nil && digests != nil {
		key := jobKey(js.spec.Options, digests)
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
		var checkpointed []logRecord
		var rest []genomejob.Unit
		for i, u := range units {
			if c, ok := js.durable[u.Name]; ok {
				// Read once, checked against the recorded digest and encoded
				// once; a tampered, torn or unreadable output just runs again.
				out, err := s.journal.ReadChrom(js.id, c)
				if err == nil {
					checkpointed = append(checkpointed, logRecord{
						StreamRecord: StreamRecord{Index: i, Recovered: true,
							Outcome: genomejob.Outcome{Name: u.Name, State: StateOK, Sites: c.Sites}},
						b64: s.encodeOutput(out),
					})
					continue
				}
				s.cfg.Logf("job %s: durable output of %s unusable (%v), recomputing", js.id, u.Name, err)
			}
			rest = append(rest, u)
			js.taskUnit = append(js.taskUnit, i)
		}
		// The registry entry exists (admit) before the pool can dispatch
		// the first task: the dequeue hook looks the job up by id.
		handle, err := s.pool.Submit(js.id, buildTasks(js.spec.Options, rest))
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
//     and the job's spool and work directories are removed (by Final, for a
//     journaled job): a client that has read the Final record must not find
//     them, and everything it can ask for is in the stream by now. If the
//     append fails the job stays pending in the WAL and its directories are
//     kept, so a restart re-runs it from its durable chromosomes instead of
//     finding its inputs gone;
//  2. a flight leader's clean result enters the cache. Partial, failed and
//     cancelled runs never do — their bytes are not the configuration's
//     true result — and must recompute;
//  3. the Final record becomes visible and done closes;
//  4. the flight is released. The Put of step 2 came first, so an identical
//     submission arriving at any moment either joins the open flight or hits
//     the cache; there is no window in which it re-executes a clean run.
func (s *Server) finish(js *jobState, state string) {
	if js.journalSeq == 0 {
		s.removeDir("job "+js.id+" spool dir", js.dir)
	} else if err := s.journal.Final(js.journalSeq, js.id, state); err != nil {
		s.cfg.Logf("job %s: journal final: %v (job will re-run on recovery)", js.id, err)
	}
	if js.key != "" && state == StateDone {
		js.mu.Lock()
		recs := append([]logRecord(nil), js.stream...)
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
	js.stream = append(js.stream, logRecord{StreamRecord: StreamRecord{
		Job: js.id, Index: -1, Outcome: genomejob.Outcome{State: state}, Final: true, Recovered: js.recovered,
	}})
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
// chromosome table should decide. Cold jobs are pooled; cached jobs replay;
// joined jobs tail; recovered jobs replay their checkpoints, then pool the
// rest.
type source func(js *jobState) string

// replay publishes records that already exist: a cache entry (state
// "cached"), or the checkpointed chromosomes of a recovered job (state "").
func replay(records []logRecord, state string) source {
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
		_ = leader.followLog(js.ctx, func(recs []logRecord) error {
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
// bytes, so the only one that persists them, and the place they are
// encoded. Cancelling the job cancels its pool tasks — undispatched
// chromosomes resolve as skipped, running ones abort at their next window
// boundary.
func (s *Server) pooled(handle *sched.Job[chromResult]) source {
	return func(js *jobState) string {
		stop := context.AfterFunc(js.ctx, func() { handle.Cancel(context.Cause(js.ctx)) })
		defer stop()
		for r := range handle.Results() {
			rec := logRecord{StreamRecord: StreamRecord{
				Index: js.taskUnit[r.Index], Outcome: genomejob.Classify(r.Result, r.Value.res),
			}}
			// Durable-before-visible: a clean chromosome is journaled before
			// its record publishes; a failure only means it recomputes after a
			// restart. Partial results never are journaled — they must
			// recompute, same as the CLI's -resume.
			if rec.State == StateOK && js.journalSeq != 0 {
				c := journal.Chrom{File: js.spec.OutName(rec.Name), Sites: rec.Sites}
				if err := s.journal.Complete(js.journalSeq, js.id, rec.Name, c, r.Value.output.Bytes()); err != nil {
					s.cfg.Logf("job %s: persisting %s: %v (it recomputes after a restart)", js.id, rec.Name, err)
				}
			}
			if out := r.Value.output; out != nil {
				rec.b64 = s.encodeOutput(out.Bytes())
				// Journaled and encoded: nothing refers to the raw bytes now.
				outBufs.Put(out)
			}
			js.publish(rec)
		}
		return ""
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
