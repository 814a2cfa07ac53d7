package service

import (
	"encoding/json"
	"fmt"

	"gsnp/internal/genomejob"
	"gsnp/internal/journal"
)

// recoverPending replays the journal after a restart: every job a
// previous process accepted but never finished is re-validated against
// its recorded input digests and handed to start, like a fresh submission
// past its journaling. It runs from New, after the pool exists and before
// the HTTP listener can accept anything, so recovered ids never race fresh
// submissions.
func (s *Server) recoverPending() {
	pending := s.journal.Pending()
	for _, e := range pending {
		js := newJob(e.Job, e.Created)
		js.journalSeq, js.recovered, js.durable = e.Seq, true, e.Chroms
		if err := s.recoverJob(js, e); err != nil {
			// Registered and finished as failed: the failure is visible over
			// the API (and journaled terminally) instead of the job silently
			// vanishing from the WAL's pending set.
			s.cfg.Logf("job %s: recovery failed: %v", js.id, err)
			if js.spec == nil {
				js.spec = &JobSpec{}
			}
			_ = s.admit(js, false) // a recovered job bypasses the admission rules: admit cannot refuse it
			s.finish(js, StateFailed)
		}
	}
	if len(pending) > 0 {
		s.cfg.Logf("journal: recovered %d interrupted job(s)", len(pending))
	}
}

// recoverJob re-validates one journaled job and starts it. The recorded
// spec is re-checked and the inputs are re-hashed against the journaled
// digests: drifted inputs fail the job rather than silently producing
// different bytes. An error means the job never reached start.
func (s *Server) recoverJob(js *jobState, e journal.Entry) error {
	var spec JobSpec
	if err := json.Unmarshal(e.Spec, &spec); err != nil {
		return fmt.Errorf("journaled spec: %w", err)
	}
	js.spec = &spec
	// Uploaded input bodies were stripped from the journaled spec — the
	// spool directory is their durable home — so only the input-independent
	// option invariants can be (and need to be) re-checked.
	if err := spec.validateOptions(); err != nil {
		return fmt.Errorf("journaled spec: %w", err)
	}
	if got := spec.Fingerprint(); got != e.Fingerprint {
		return fmt.Errorf("fingerprint drift: journaled %q, recomputed %q", e.Fingerprint, got)
	}

	dir := spec.GenomeDir
	if dir == "" { // an upload: its inputs are in the job's spool directory
		dir = s.journal.SpoolDir(e.Job)
	}
	units, _, err := genomejob.Discover(dir, spec.Options)
	if err != nil {
		return err
	}
	digests, err := genomejob.UnitDigests(units)
	if err != nil {
		return fmt.Errorf("re-hashing inputs: %w", err)
	}
	if len(digests) != len(e.Digests) {
		return fmt.Errorf("input set changed: %d chromosomes journaled, %d found", len(e.Digests), len(units))
	}
	for i, d := range digests {
		if d != e.Digests[i] {
			return fmt.Errorf("input %s changed since the job was journaled", units[i].Name)
		}
	}
	if err := s.start(js, units, digests); err != nil {
		s.cfg.Logf("job %s: recovery: %v", js.id, err) // start has already finished it as failed
	}
	return nil
}
