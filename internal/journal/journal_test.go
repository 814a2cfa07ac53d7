package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsnp/internal/checkpoint"
)

func openT(t *testing.T, cfg Config) *Journal {
	t.Helper()
	j, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func acceptN(t *testing.T, j *Journal, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		e := Entry{
			Seq: i, Job: fmt.Sprintf("j%d", i),
			Spec:        json.RawMessage(`{"genome_dir":"/data"}`),
			Fingerprint: "fp", Digests: []string{"d1", "d2"},
			Created: time.Unix(int64(1700000000+i), 0).UTC(),
		}
		if err := j.Accept(e); err != nil {
			t.Fatalf("accept %d: %v", i, err)
		}
	}
}

// TestJournalRoundTrip: accepted-without-final records survive a close and
// reopen, in admission order, with ids resuming past MaxSeq.
func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, Config{Dir: dir})
	acceptN(t, j, 3)
	if err := j.Final(2, "j2", "done"); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2 := openT(t, Config{Dir: dir})
	pending := j2.Pending()
	if len(pending) != 2 {
		t.Fatalf("pending after reopen: %d entries, want 2", len(pending))
	}
	if pending[0].Job != "j1" || pending[1].Job != "j3" {
		t.Fatalf("pending order: %s, %s, want j1, j3", pending[0].Job, pending[1].Job)
	}
	if pending[0].Fingerprint != "fp" || len(pending[0].Digests) != 2 {
		t.Fatalf("entry fields lost across reopen: %+v", pending[0])
	}
	if got := j2.MaxSeq(); got != 3 {
		t.Fatalf("MaxSeq = %d, want 3", got)
	}
	if !pending[0].Created.Equal(time.Unix(1700000001, 0).UTC()) {
		t.Fatalf("created timestamp drifted: %v", pending[0].Created)
	}
}

// TestJournalTornTail: a partial trailing line — the crash-mid-append
// signature — is dropped on replay; every complete record survives.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, Config{Dir: dir})
	acceptN(t, j, 2)
	j.Close()

	path := filepath.Join(dir, WALName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(f, `{"v":%d,"kind":"accepted","seq":3,"jo`, Version); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2 := openT(t, Config{Dir: dir})
	pending := j2.Pending()
	if len(pending) != 2 {
		t.Fatalf("pending after torn tail: %d, want 2", len(pending))
	}
	// Open compacted the log: the torn bytes are gone from disk.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"seq":3`) {
		t.Fatalf("torn record survived compaction: %q", data)
	}
}

// TestJournalCorruptInterior: a malformed record that is NOT the last line
// is silent corruption, and Open must refuse the log rather than drop jobs.
func TestJournalCorruptInterior(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, Config{Dir: dir})
	acceptN(t, j, 1)
	j.Close()

	path := filepath.Join(dir, WALName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(f, "garbage not json\n{\"v\":%d,\"kind\":\"final\",\"seq\":1,\"job\":\"j1\"}\n", Version); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a WAL with a corrupt interior record")
	}
}

// TestJournalUnknownKind: a record kind this version does not know is a
// schema breach, not something to skip silently.
func TestJournalUnknownKind(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALName),
		fmt.Appendf(nil, "{\"v\":%d,\"kind\":\"mystery\",\"seq\":1,\"job\":\"j1\"}\n", Version), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted an unknown record kind")
	}
}

// TestJournalRotation: accept/final churn beyond RotateBytes compacts the
// WAL down to its live records instead of accreting history.
func TestJournalRotation(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, Config{Dir: dir, RotateBytes: 512})
	for i := 1; i <= 50; i++ {
		job := fmt.Sprintf("j%d", i)
		if err := j.Accept(Entry{Seq: i, Job: job, Fingerprint: "fp"}); err != nil {
			t.Fatal(err)
		}
		if i != 50 { // leave the last job pending
			if err := j.Final(i, job, "done"); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := os.Stat(filepath.Join(dir, WALName))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 1024 {
		t.Fatalf("WAL grew to %d bytes despite RotateBytes=512", st.Size())
	}
	if p := j.Pending(); len(p) != 1 || p[0].Job != "j50" {
		t.Fatalf("pending after churn: %+v, want only j50", p)
	}
	j.Close()
	if p := openT(t, Config{Dir: dir}).Pending(); len(p) != 1 || p[0].Job != "j50" {
		t.Fatalf("pending after reopen: %+v, want only j50", p)
	}
}

// failFS is the os seam with one switch: while failAppend is set, the next
// WAL append fails without writing.
type failFS struct {
	checkpoint.FS
	failAppend atomic.Bool
}

func (fs *failFS) OpenLog(path string) (checkpoint.Log, error) {
	l, err := fs.FS.OpenLog(path)
	if err != nil {
		return nil, err
	}
	return failLog{l, fs}, nil
}

type failLog struct {
	checkpoint.Log
	fs *failFS
}

func (l failLog) Append(p []byte) error {
	if l.fs.failAppend.Swap(false) {
		return errors.New("injected append fault")
	}
	return l.Log.Append(p)
}

// TestJournalAppendFault: a failed append fails that one Accept, leaves the
// WAL clean, and later appends succeed.
func TestJournalAppendFault(t *testing.T) {
	dir := t.TempDir()
	fs := &failFS{FS: checkpoint.OS}
	j := openT(t, Config{Dir: dir, FS: fs})
	acceptN(t, j, 1)
	fs.failAppend.Store(true)
	if err := j.Accept(Entry{Seq: 2, Job: "j2"}); err == nil {
		t.Fatal("faulted Accept succeeded")
	}
	if err := j.Accept(Entry{Seq: 3, Job: "j3"}); err != nil {
		t.Fatalf("append after fault: %v", err)
	}
	j.Close()

	pending := openT(t, Config{Dir: dir}).Pending()
	if len(pending) != 2 || pending[0].Job != "j1" || pending[1].Job != "j3" {
		t.Fatalf("pending after faulted append: %+v, want j1 and j3", pending)
	}
}

// TestJournalSweep: Open removes the spool debris of jobs that are not
// pending and keeps the pending jobs' directories.
func TestJournalSweep(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, Config{Dir: dir})
	if err := j.Accept(Entry{Seq: 2, Job: "j2"}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	for _, job := range []string{"j1", "j2"} {
		p := filepath.Join(dir, "spool", job)
		if err := os.MkdirAll(p, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(p, "x"), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	openT(t, Config{Dir: dir})
	if _, err := os.Stat(filepath.Join(dir, "spool", "j1")); !os.IsNotExist(err) {
		t.Errorf("spool/j1 survived the sweep")
	}
	if _, err := os.Stat(filepath.Join(dir, "spool", "j2", "x")); err != nil {
		t.Errorf("spool/j2 was swept despite being pending: %v", err)
	}
}

// TestJournalClosed: appends after Close report ErrClosed instead of
// writing through a nil handle.
func TestJournalClosed(t *testing.T) {
	j := openT(t, Config{Dir: t.TempDir()})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := j.Accept(Entry{Seq: 1, Job: "j1"}); err != ErrClosed {
		t.Fatalf("Accept after Close: %v, want ErrClosed", err)
	}
}

// TestJournalConcurrent hammers Accept/Final from many goroutines; the
// reopened log must agree exactly with the survivors.
func TestJournalConcurrent(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, Config{Dir: dir, RotateBytes: 2048})
	const n = 100
	var wg sync.WaitGroup
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			job := fmt.Sprintf("j%d", i)
			if err := j.Accept(Entry{Seq: i, Job: job}); err != nil {
				t.Errorf("accept %s: %v", job, err)
				return
			}
			if i%2 == 0 {
				if err := j.Final(i, job, "done"); err != nil {
					t.Errorf("final %s: %v", job, err)
				}
			}
		}(i)
	}
	wg.Wait()
	j.Close()

	pending := openT(t, Config{Dir: dir}).Pending()
	if len(pending) != n/2 {
		t.Fatalf("pending after concurrent churn: %d, want %d", len(pending), n/2)
	}
	for i, e := range pending {
		if e.Seq != 2*i+1 {
			t.Fatalf("pending[%d].Seq = %d, want %d (odd seqs only, sorted)", i, e.Seq, 2*i+1)
		}
	}
}

// digestOf is the hex sha256 of out.
func digestOf(out string) string {
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:])
}

// complete names one chromosome of job, stored with out as its bytes.
func complete(t *testing.T, j *Journal, seq int, job, name string, out string) {
	t.Helper()
	if err := j.Complete(seq, job, name, Chrom{File: name + ".result", SHA256: digestOf(out), Sites: len(out)}); err != nil {
		t.Fatalf("complete %s/%s: %v", job, name, err)
	}
}

// chromsOf returns the durable chromosomes of a pending job.
func chromsOf(t *testing.T, j *Journal, job string) map[string]Chrom {
	t.Helper()
	for _, e := range j.Pending() {
		if e.Job == job {
			return e.Chroms
		}
	}
	t.Fatalf("job %s not pending", job)
	return nil
}

// TestJournalChromCompaction: compaction — at Open and at the RotateBytes
// threshold — folds a pending job's chrom records into its accepted record
// and drops a finished job's.
func TestJournalChromCompaction(t *testing.T) {
	for _, rotate := range []int64{0, 256} {
		t.Run(fmt.Sprint("rotate=", rotate), func(t *testing.T) {
			dir := t.TempDir()
			j := openT(t, Config{Dir: dir, RotateBytes: rotate})
			acceptN(t, j, 2)
			for i, job := range []string{"j1", "j2"} {
				complete(t, j, i+1, job, "chr1", job+" chr1 rows\n")
				complete(t, j, i+1, job, "chr2", job+" chr2 rows\n")
			}
			if err := j.Final(2, "j2", "done"); err != nil {
				t.Fatal(err)
			}
			if rotate > 0 {
				// Churn past the threshold: the rewrite must keep j1's chromosomes.
				for i := 3; i <= 12; i++ {
					job := fmt.Sprintf("j%d", i)
					if err := j.Accept(Entry{Seq: i, Job: job}); err != nil {
						t.Fatal(err)
					}
					if err := j.Final(i, job, "done"); err != nil {
						t.Fatal(err)
					}
				}
				wal, err := os.ReadFile(filepath.Join(dir, WALName))
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(string(wal), `"j2"`) || !strings.Contains(string(wal), `"chr2"`) {
					t.Errorf("WAL rotated at the threshold is not j1's record with its chromosomes:\n%s", wal)
				}
			}
			j.Close()

			j2 := openT(t, Config{Dir: dir})
			if p := j2.Pending(); len(p) != 1 || p[0].Job != "j1" {
				t.Fatalf("pending after reopen: %+v, want only j1", p)
			}
			got := chromsOf(t, j2, "j1")
			if len(got) != 2 {
				t.Fatalf("j1 chromosomes after compaction: %+v, want chr1 and chr2", got)
			}
			for name, c := range got {
				if out := "j1 " + name + " rows\n"; c.SHA256 != digestOf(out) || c.Sites != len(out) {
					t.Errorf("%s: recorded %+v, not its bytes' digest and sites", name, c)
				}
			}
			wal, err := os.ReadFile(filepath.Join(dir, WALName))
			if err != nil {
				t.Fatal(err)
			}
			if lines := strings.Count(string(wal), "\n"); lines != 1 || strings.Contains(string(wal), `"j2"`) {
				t.Errorf("compacted WAL is not j1's one accepted record:\n%s", wal)
			}
		})
	}
}

// TestJournalChromLastWins: a chromosome recomputed after a tamper is
// recorded again, and the later record is the one recovery trusts.
func TestJournalChromLastWins(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, Config{Dir: dir})
	acceptN(t, j, 1)
	complete(t, j, 1, "j1", "chr1", "first\n")
	if got := chromsOf(t, j, "j1")["chr1"].SHA256; got != digestOf("first\n") {
		t.Fatalf("first record names %s", got)
	}
	complete(t, j, 1, "j1", "chr1", "second\n")
	j.Close()

	j2 := openT(t, Config{Dir: dir})
	got := chromsOf(t, j2, "j1")
	if len(got) != 1 || got["chr1"].SHA256 != digestOf("second\n") {
		t.Fatalf("chromosomes after a re-record: %+v, want one chr1 naming the second bytes", got)
	}
}

// TestJournalTornChromTail: a chrom record torn mid-append is dropped; the
// records before it survive.
func TestJournalTornChromTail(t *testing.T) {
	dir := t.TempDir()
	j := openT(t, Config{Dir: dir})
	acceptN(t, j, 1)
	complete(t, j, 1, "j1", "chr1", "rows\n")
	j.Close()

	f, err := os.OpenFile(filepath.Join(dir, WALName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Fprintf(f, `{"v":%d,"kind":"chrom","seq":1,"job":"j1","chroms":{"chr2":{"fi`, Version); err != nil {
		t.Fatal(err)
	}
	f.Close()

	got := chromsOf(t, openT(t, Config{Dir: dir}), "j1")
	if _, ok := got["chr1"]; !ok || len(got) != 1 {
		t.Fatalf("chromosomes after a torn chrom tail: %+v, want chr1 only", got)
	}
}

// TestJournalChromWithoutAccept: a chrom record for a job the WAL never
// accepted is corruption, refused like an unknown kind; Complete never
// writes one.
func TestJournalChromWithoutAccept(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, WALName), fmt.Appendf(nil,
		`{"v":%d,"kind":"chrom","seq":1,"job":"j1","chroms":{"chr1":{"file":"chr1.result","sha256":"00","sites":1}}}`+"\n"+
			`{"v":%[1]d,"kind":"accepted","seq":2,"job":"j2"}`+"\n", Version), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{Dir: dir}); err == nil {
		t.Fatal("Open accepted a chrom record with no accepted record")
	}

	j := openT(t, Config{Dir: t.TempDir()})
	acceptN(t, j, 1)
	if err := j.Final(1, "j1", "done"); err != nil {
		t.Fatal(err)
	}
	if err := j.Complete(1, "j1", "chr1", Chrom{File: "chr1.result", SHA256: digestOf("x")}); err == nil {
		t.Fatal("Complete recorded a chromosome of a finished job")
	}
	j.Close()
	if _, err := Open(Config{Dir: j.cfg.Dir}); err != nil {
		t.Fatalf("WAL after a refused Complete: %v", err)
	}
}
