// Package journal is gsnpd's crash-durability layer and the one durable
// record of a job: a write-ahead log plus, under the same root, each
// job's spool directory (uploaded inputs). A job is appended — spec,
// output-shaping fingerprint, per-chromosome input digests — and fsync'd
// *before* the client sees its 202; each clean chromosome, once the
// service has made its bytes durable in its result store, is named by a
// chrom record before the service publishes it; a final record ends the
// job, and its spool directory goes. The accepted records without a final
// record are exactly the jobs a crash interrupted, and Open returns them,
// with their chromosomes, for recovery.
//
// Every change the journal makes to its directory goes through the
// durable-write seam (checkpoint.FS). The WAL is newline-delimited JSON,
// one record per line, appended through the seam's Log (a single write
// followed by fsync; a failed append is truncated back out), and
// compaction (at open, and whenever the log outgrows RotateBytes) rewrites
// only the live records — accepted records with their chromosomes folded
// in — with the seam's atomic WriteFile. Replay tolerates exactly one torn
// line at the tail — the signature of a crash mid-append — and refuses
// anything else, so silent corruption surfaces instead of dropping jobs.
package journal

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"gsnp/internal/checkpoint"
)

// Version guards the record schema; a mismatched record invalidates the
// log rather than being misread.
const Version = 2

// WALName is the journal file name inside the journal directory.
const WALName = "wal.ndjson"

// Record kinds.
const (
	KindAccepted = "accepted" // job admitted, not yet resolved
	KindChrom    = "chrom"    // a chromosome of a pending job made durable
	KindFinal    = "final"    // job reached a terminal state
)

// ErrClosed is returned by appends after Close.
var ErrClosed = errors.New("journal: closed")

// Entry is one WAL record. Accepted records carry the job's identity and
// everything recovery needs; final records carry only the terminal state.
type Entry struct {
	V    int    `json:"v"`
	Kind string `json:"kind"`
	// Seq is the job's admission sequence number (the numeric part of its
	// id); the restarted service resumes id allocation past the maximum.
	Seq int `json:"seq"`
	// Job is the job id the record belongs to.
	Job string `json:"job"`
	// State is the terminal state (final records only).
	State string `json:"state,omitempty"`
	// Spec is the job's JSON spec with uploaded input bodies stripped —
	// those live in the spool directory, which survives restarts.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Fingerprint is the output-shaping configuration fingerprint the job
	// was admitted under; recovery refuses a mismatch.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Digests are the per-unit input content digests in Discover order;
	// recovery re-hashes the inputs and refuses any drift.
	Digests []string `json:"digests,omitempty"`
	// Created is the job's original admission time.
	Created time.Time `json:"created,omitempty"`
	// Chroms are durable chromosomes by name: the one a chrom record
	// adds, or every one a pending job has recorded so far.
	Chroms map[string]Chrom `json:"chroms,omitempty"`
}

// Chrom is one cleanly finished chromosome. Its bytes are a file the
// service stored before the record was appended, named by SHA256; File is
// the name the CLI would give the output.
type Chrom struct {
	File   string `json:"file"`
	SHA256 string `json:"sha256"` // hex digest of the file's bytes
	Sites  int    `json:"sites"`
}

// Config configures Open.
type Config struct {
	// Dir is the journal directory; created if missing. The WAL and the
	// spool root (uploaded inputs) live under it.
	Dir string
	// RotateBytes triggers compaction when the WAL exceeds it
	// (0 selects 4 MiB).
	RotateBytes int64
	// FS is the durable-write seam every change under Dir goes through
	// (nil selects checkpoint.OS).
	FS checkpoint.FS
	// Logf receives operational log lines (nil discards).
	Logf func(format string, args ...any)
}

// Journal is an open WAL. Safe for concurrent use.
type Journal struct {
	cfg  Config
	path string

	mu      sync.Mutex
	log     checkpoint.Log // nil after a compaction that could not reopen the WAL
	size    int64
	pending map[string]Entry // accepted records without a final, by job id
	maxSeq  int
	closed  bool
}

// Open loads (or creates) the journal under cfg.Dir: the WAL is replayed,
// compacted down to its live records and reopened for appending, and the
// spool directories of jobs that are not pending are swept. Pending then
// holds every job a previous process accepted but never finalized.
func Open(cfg Config) (*Journal, error) {
	if cfg.RotateBytes <= 0 {
		cfg.RotateBytes = 4 << 20
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.FS == nil {
		cfg.FS = checkpoint.OS
	}
	if err := cfg.FS.MkdirAll(filepath.Join(cfg.Dir, "spool")); err != nil {
		return nil, err
	}
	j := &Journal{cfg: cfg, path: filepath.Join(cfg.Dir, WALName), pending: make(map[string]Entry)}
	if err := j.replay(); err != nil {
		return nil, err
	}
	// Compact: the replayed history collapses to the live records, so a
	// long-running service's accepted/final churn never accretes.
	if err := j.rewriteLocked(); err != nil {
		return nil, err
	}
	j.sweep()
	return j, nil
}

// replay loads the WAL into the pending map. A torn final line — the
// crash-mid-append signature — is dropped with a log line; a malformed
// interior line is corruption and fails Open.
func (j *Journal) replay() error {
	data, err := os.ReadFile(j.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	for len(data) > 0 {
		line := data
		rest := []byte(nil)
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, rest = data[:i], data[i+1:]
		}
		var e Entry
		if uerr := json.Unmarshal(line, &e); uerr != nil || e.V != Version || e.Job == "" {
			if len(rest) == 0 {
				j.cfg.Logf("journal: dropping torn trailing record (%d bytes)", len(line))
				data = nil
				continue
			}
			return fmt.Errorf("journal: %s: corrupt interior record: %q", j.path, line[:min(len(line), 120)])
		}
		if err := j.apply(e); err != nil {
			return fmt.Errorf("journal: %s: %w", j.path, err)
		}
		data = rest
	}
	return nil
}

// apply folds one durable record into the live state, for replay and
// append alike. A record it refuses is corruption.
func (j *Journal) apply(e Entry) error {
	switch e.Kind {
	case KindAccepted:
		j.pending[e.Job] = e
	case KindChrom:
		p, ok := j.pending[e.Job]
		if !ok {
			return fmt.Errorf("chrom record for job %q, which has no pending accepted record", e.Job)
		}
		// A new map, so no Pending snapshot changes under its holder; the
		// last record of a chromosome wins.
		chroms := make(map[string]Chrom, len(p.Chroms)+len(e.Chroms))
		maps.Copy(chroms, p.Chroms)
		maps.Copy(chroms, e.Chroms)
		p.Chroms = chroms
		j.pending[e.Job] = p
	case KindFinal:
		delete(j.pending, e.Job)
	default:
		return fmt.Errorf("unknown record kind %q", e.Kind)
	}
	j.maxSeq = max(j.maxSeq, e.Seq)
	return nil
}

// rewriteLocked compacts the WAL down to the pending records (one atomic
// write) and reopens it for appending. Caller must hold j.mu, or own the
// journal exclusively (Open).
func (j *Journal) rewriteLocked() error {
	live := j.pendingSortedLocked()
	var buf []byte
	for _, e := range live {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	if err := j.cfg.FS.WriteFile(j.path, buf); err != nil {
		return err
	}
	if j.log != nil {
		// The old handle points at the renamed-over inode; a close error
		// is irrelevant (everything it wrote was already fsync'd).
		j.log.Close()
		j.log = nil
	}
	log, err := j.cfg.FS.OpenLog(j.path)
	if err != nil {
		return err
	}
	j.log = log
	j.size = int64(len(buf))
	return nil
}

// pendingSortedLocked snapshots the pending records in admission order
// (job id breaks a tie, so compaction has one order to write).
func (j *Journal) pendingSortedLocked() []Entry {
	live := make([]Entry, 0, len(j.pending))
	for _, e := range j.pending {
		live = append(live, e)
	}
	slices.SortFunc(live, func(a, b Entry) int { return cmp.Or(cmp.Compare(a.Seq, b.Seq), strings.Compare(a.Job, b.Job)) })
	return live
}

// Pending returns the accepted-but-unresolved records in admission order,
// each with the chromosomes its job has made durable.
func (j *Journal) Pending() []Entry {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pendingSortedLocked()
}

// MaxSeq returns the highest sequence number the WAL has recorded; the
// service resumes job-id allocation past it so recovered and new ids
// never collide.
func (j *Journal) MaxSeq() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.maxSeq
}

// SpoolDir returns the journal-owned spool directory for a job's
// uploaded inputs. It survives restarts; Final removes it.
func (j *Journal) SpoolDir(job string) string {
	return filepath.Join(j.cfg.Dir, "spool", job)
}

// Accept journals a job's admission. It must return before the job is
// acknowledged to the client; an error means the job was never durably
// accepted and the caller must fail it (the WAL itself stays clean — a
// torn append is truncated back out).
func (j *Journal) Accept(e Entry) error {
	e.V, e.Kind = Version, KindAccepted
	return j.append(e)
}

// Complete names one clean chromosome of a pending job, whose bytes the
// caller has already made durable as the file c.SHA256 names. An error
// leaves the chromosome to recompute after a restart.
func (j *Journal) Complete(seq int, job, name string, c Chrom) error {
	return j.append(Entry{V: Version, Kind: KindChrom, Seq: seq, Job: job, Chroms: map[string]Chrom{name: c}})
}

// Final journals a job's terminal state, then removes the job's spool
// directory. An error leaves the job pending, spool and all — it will
// re-run (through its durable chromosomes) on the next recovery — so
// callers log it rather than failing the finished job.
func (j *Journal) Final(seq int, job, state string) error {
	if err := j.append(Entry{V: Version, Kind: KindFinal, Seq: seq, Job: job, State: state}); err != nil {
		return err
	}
	if err := j.cfg.FS.RemoveAll(j.SpoolDir(job)); err != nil {
		j.cfg.Logf("journal: removing the spool of %s: %v", job, err)
	}
	return nil
}

// append writes one record durably through the seam's Log, which
// truncates a failed append back out, so the log never carries a torn line
// mid-file.
func (j *Journal) append(e Entry) error {
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	line = append(line, '\n')

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return ErrClosed
	}
	if j.log == nil {
		return errors.New("journal: the WAL could not be reopened after compaction; restart to recover")
	}
	if _, ok := j.pending[e.Job]; !ok && e.Kind == KindChrom {
		return fmt.Errorf("journal: job %s is not pending", e.Job)
	}
	// The WAL contract is one fsync'd append at a time; j.mu serializes it.
	if err := j.log.Append(line); err != nil {
		return fmt.Errorf("journal append: %w", err)
	}
	j.size += int64(len(line))
	_ = j.apply(e) // cannot refuse: the kind is ours, and a chrom record's job is pending
	if j.size > j.cfg.RotateBytes {
		if rerr := j.rewriteLocked(); rerr != nil {
			// Compaction failure is not fatal: the oversized WAL is still
			// correct, only uncompacted. Keep appending and retry at the
			// next threshold crossing.
			j.cfg.Logf("journal: compaction failed (will retry): %v", rerr)
		}
	}
	return nil
}

// sweep removes the spool directories of jobs that are not pending:
// debris of jobs finalized, or never fully admitted, right before a crash.
func (j *Journal) sweep() {
	root := filepath.Join(j.cfg.Dir, "spool")
	entries, err := os.ReadDir(root)
	if err != nil {
		j.cfg.Logf("journal: sweep %s: %v", root, err)
		return
	}
	for _, ent := range entries {
		if _, ok := j.pending[ent.Name()]; ok {
			continue
		}
		p := filepath.Join(root, ent.Name())
		if err := j.cfg.FS.RemoveAll(p); err != nil {
			j.cfg.Logf("journal: sweep: removing %s: %v", p, err)
		} else {
			j.cfg.Logf("journal: swept stale %s", p)
		}
	}
}

// Close flushes nothing (every append already fsync'd) and releases the
// WAL handle. Idempotent.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.log == nil {
		return nil
	}
	// Close must exclude in-flight appends before releasing the handle.
	err := j.log.Close()
	j.log = nil
	return err
}
