// Package checkpoint makes whole-genome runs resumable. A genome-mode run
// records every cleanly finished chromosome in a manifest next to the data
// (.gsnp.checkpoint.json), saved atomically after each completion; a
// restarted run with -resume skips a chromosome only when the manifest's
// configuration fingerprint matches the current flags AND the recorded
// output file still exists with the recorded digest, so stale or tampered
// outputs are recomputed rather than trusted.
//
// The package also defines the machine-readable failure report a degraded
// run writes (-failure-report): per-chromosome status, attempts, and the
// window quarantine records, and the durable-write seam (FS, fs.go) that
// this package, the gsnpd journal and its spool change the disk through.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"gsnp/internal/pipeline"
)

// Version guards the manifest schema; a mismatch invalidates the file.
const Version = 1

// DefaultName is the manifest file name inside a genome directory.
const DefaultName = ".gsnp.checkpoint.json"

// Path returns the manifest location for a genome directory.
func Path(genomeDir string) string { return filepath.Join(genomeDir, DefaultName) }

// Entry records one cleanly finished chromosome.
type Entry struct {
	// Output is the result file name, relative to the manifest directory.
	Output string `json:"output"`
	// SHA256 is the hex digest of the output file at completion time.
	SHA256 string `json:"sha256"`
	// Sites is the number of reference sites processed.
	Sites int `json:"sites"`
}

// Manifest is the on-disk checkpoint state.
type Manifest struct {
	Version int `json:"version"`
	// Fingerprint captures every flag that shapes output bytes; resuming
	// under different flags must recompute everything.
	Fingerprint string `json:"fingerprint"`
	// Done maps task name (the chromosome's .fa base name) to its entry.
	Done map[string]Entry `json:"done"`
}

// Fingerprint encodes the output-shaping configuration: every option that
// can change result bytes must appear here, because the fingerprint keys
// both checkpoint resume validation and the gsnpd result cache — two
// byte-different configurations must never alias. Concurrency flags are
// deliberately absent: the engines guarantee byte-identical output across
// them, so a checkpoint taken at -workers 8 is valid for a -workers 1
// resume (and a cached result served across them is exact). Quarantine is present because a quarantined run may
// omit windows a strict run would either emit or die on.
// genomejob.Options.Fingerprint is the canonical caller; the pinning test
// there enumerates Options fields against this parameter list.
//
// Extras extend the fingerprint for newer output-shaping options (the
// aligner parameters of FASTQ jobs, the VCF codec). Each extra is
// appended verbatim after a space. Callers must pass extras only when the
// option is active so that pre-existing configurations keep the exact key
// they had before the option existed — cached results and checkpoints
// written by older builds stay valid.
func Fingerprint(engine, format string, window int, compress, quarantine bool, extra ...string) string {
	fp := fmt.Sprintf("v%d engine=%s format=%s window=%d compress=%t quarantine=%t",
		Version, engine, format, window, compress, quarantine)
	for _, e := range extra {
		fp += " " + e
	}
	return fp
}

// Load reads a manifest. A missing file returns (nil, nil); a corrupt or
// wrong-version file is an error so the caller can refuse a bad -resume
// rather than silently recompute.
func Load(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s: version %d, want %d", path, m.Version, Version)
	}
	return &m, nil
}

// digestBufs holds FileDigest's read buffers. Every gsnpd submission hashes
// all its inputs, so a fresh buffer per file (what io.Copy from an *os.File
// allocates) is garbage at the rate jobs arrive.
var digestBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// FileDigest returns the hex SHA-256 of a file's contents.
func FileDigest(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	buf := digestBufs.Get().(*[32 << 10]byte)
	defer digestBufs.Put(buf)
	h := sha256.New()
	// The anonymous struct hides (*os.File).WriteTo, which would otherwise
	// take over the copy and allocate a buffer of its own.
	if _, err := io.CopyBuffer(h, struct{ io.Reader }{f}, buf[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Writer maintains the manifest across a run. It is safe for concurrent
// use from the scheduler's worker pool; every CompleteDigest persists the
// manifest with AtomicWrite, so a killed run loses at most the chromosome
// in flight.
type Writer struct {
	path string

	mu sync.Mutex
	m  Manifest
}

// NewWriter opens the manifest at path for a run with the given
// fingerprint. When resume is set and an existing manifest matches the
// fingerprint, its entries carry over; otherwise the writer starts empty
// (a fingerprint mismatch under resume is reported, not ignored).
func NewWriter(path, fingerprint string, resume bool) (*Writer, error) {
	w := &Writer{path: path, m: Manifest{
		Version: Version, Fingerprint: fingerprint, Done: make(map[string]Entry)}}
	if !resume {
		return w, nil
	}
	prev, err := Load(path)
	if err != nil {
		return nil, err
	}
	if prev == nil {
		return w, nil
	}
	if prev.Fingerprint != fingerprint {
		return nil, fmt.Errorf("checkpoint: %s was written under %q, current run is %q (rerun without -resume or align the flags)",
			path, prev.Fingerprint, fingerprint)
	}
	for name, e := range prev.Done {
		w.m.Done[name] = e
	}
	return w, nil
}

// Done reports whether name may be skipped: it was checkpointed and its
// output file still has the recorded digest. A missing or modified output
// invalidates the entry (and removes it, so the rerun re-checkpoints).
func (w *Writer) Done(name string) (Entry, bool) {
	w.mu.Lock()
	e, ok := w.m.Done[name]
	w.mu.Unlock()
	if !ok {
		return Entry{}, false
	}
	digest, err := FileDigest(filepath.Join(filepath.Dir(w.path), e.Output))
	if err != nil || digest != e.SHA256 {
		w.mu.Lock()
		delete(w.m.Done, name)
		w.mu.Unlock()
		return Entry{}, false
	}
	return e, true
}

// CompleteDigest records a cleanly finished chromosome and persists the
// manifest. The caller hashed the output while writing it: digest is the
// hex SHA-256 FileDigest would return for outPath, which must live in the
// manifest's directory.
func (w *Writer) CompleteDigest(name, outPath, digest string, sites int) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.m.Done[name] = Entry{Output: filepath.Base(outPath), SHA256: digest, Sites: sites}
	//gsnplint:ignore lockhold w.mu exists to serialize manifest read-modify-write saves; the atomic rewrite must stay inside it, and CompleteDigest runs once per chromosome, not per record
	return w.saveLocked()
}

// saveLocked writes the manifest through the seam's atomic write.
func (w *Writer) saveLocked() error {
	data, err := json.MarshalIndent(&w.m, "", "  ")
	if err != nil {
		return err
	}
	return AtomicWrite(w.path, append(data, '\n'))
}

// Task status values of the failure report.
const (
	StatusOK      = "ok"      // clean completion
	StatusPartial = "partial" // completed with quarantined windows / skipped records
	StatusFailed  = "failed"  // aborted after exhausting retries
	StatusSkipped = "skipped" // not run (checkpointed, or the run was cancelled first)
)

// TaskReport is one chromosome's outcome in the failure report.
type TaskReport struct {
	Name     string `json:"name"`
	Status   string `json:"status"`
	Output   string `json:"output,omitempty"`
	Sites    int    `json:"sites,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
	Panicked bool   `json:"panicked,omitempty"`
	// CalSkipped counts records dropped during the calibration pass.
	CalSkipped int `json:"cal_skipped,omitempty"`
	// Quarantined lists the windows abandoned during the windowed pass.
	Quarantined []pipeline.Quarantine `json:"quarantined,omitempty"`
}

// FailureReport is the machine-readable outcome of a degraded genome run.
type FailureReport struct {
	Fingerprint string       `json:"fingerprint"`
	ExitCode    int          `json:"exit_code"`
	Tasks       []TaskReport `json:"tasks"`
}

// Save writes the report atomically.
func (r *FailureReport) Save(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return AtomicWrite(path, append(data, '\n'))
}
