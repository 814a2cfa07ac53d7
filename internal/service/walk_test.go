package service

import (
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gsnp/internal/checkpoint"
	"gsnp/internal/genomejob"
	"gsnp/internal/journal"
)

// fsOp is one operation on the durable-write seam.
type fsOp struct {
	kind string // "write", "append", "mkdir", "remove" or "openlog"
	path string
	data []byte // the record an append carries
}

// record decodes the WAL record an append carries (zero for other ops).
func (op fsOp) record() journal.Entry {
	var e journal.Entry
	if op.kind == "append" {
		_ = json.Unmarshal(op.data, &e)
	}
	return e
}

// describe renders op with its path relative to root.
func (op fsOp) describe(root string) string {
	if op.kind == "append" {
		e := op.record()
		return fmt.Sprintf("append %s %s", e.Kind, e.Job)
	}
	rel, err := filepath.Rel(root, op.path)
	if err != nil {
		rel = op.path
	}
	return op.kind + " " + rel
}

// fate is what scriptFS does with one operation.
type fate int

const (
	pass fate = iota
	fail      // return an error and change nothing
	die       // the process stops here: an append leaves a torn prefix on disk, and this and every later operation change nothing
)

func (f fate) String() string { return [...]string{"pass", "fail", "die"}[f] }

var errDied = errors.New("scriptFS: the process died at this or an earlier operation")

// scriptFS is the service tests' durable-write seam: the os implementation
// behind a script that gives every operation a fate by its 1-based index
// and content. gate, when set, runs before an operation is numbered and
// may block it.
type scriptFS struct {
	gate func(op fsOp)

	mu     sync.Mutex
	script func(n int, op fsOp) fate
	ops    []fsOp
	dead   bool
}

// arm installs script and restarts the numbering at 1.
func (fs *scriptFS) arm(script func(n int, op fsOp) fate) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.script, fs.ops = script, nil
}

// done returns the operations numbered since the last arm.
func (fs *scriptFS) done() []fsOp {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return append([]fsOp(nil), fs.ops...)
}

// do numbers op and applies its fate: run performs it, torn leaves what a
// crash in the middle of it leaves (nil: nothing).
func (fs *scriptFS) do(op fsOp, run func() error, torn func()) error {
	if fs.gate != nil {
		fs.gate(op)
	}
	fs.mu.Lock()
	if fs.dead {
		fs.mu.Unlock()
		return errDied
	}
	fs.ops = append(fs.ops, op)
	f := pass
	if fs.script != nil {
		f = fs.script(len(fs.ops), op)
	}
	fs.dead = f == die
	n := len(fs.ops)
	fs.mu.Unlock()
	switch f {
	case fail:
		return fmt.Errorf("scriptFS: injected failure of operation %d (%s %s)", n, op.kind, op.path)
	case die:
		if torn != nil {
			torn()
		}
		return errDied
	}
	return run()
}

func (fs *scriptFS) WriteFile(path string, data []byte) error {
	return fs.do(fsOp{kind: "write", path: path}, func() error { return checkpoint.OS.WriteFile(path, data) }, nil)
}

func (fs *scriptFS) MkdirAll(dir string) error {
	return fs.do(fsOp{kind: "mkdir", path: dir}, func() error { return checkpoint.OS.MkdirAll(dir) }, nil)
}

func (fs *scriptFS) RemoveAll(path string) error {
	return fs.do(fsOp{kind: "remove", path: path}, func() error { return checkpoint.OS.RemoveAll(path) }, nil)
}

func (fs *scriptFS) OpenLog(path string) (checkpoint.Log, error) {
	var l checkpoint.Log
	err := fs.do(fsOp{kind: "openlog", path: path}, func() (err error) {
		l, err = checkpoint.OS.OpenLog(path)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	return scriptLog{l, fs, path}, nil
}

// scriptLog numbers every append of the log it wraps.
type scriptLog struct {
	checkpoint.Log
	fs   *scriptFS
	path string
}

func (l scriptLog) Append(p []byte) error {
	return l.fs.do(fsOp{"append", l.path, p},
		func() error { return l.Log.Append(p) },
		func() { _ = l.Log.Append(p[:len(p)/2]) })
}

// failing is a seam that fails every operation pick matches.
func failing(pick func(fsOp) bool) *scriptFS {
	return &scriptFS{script: func(_ int, op fsOp) fate {
		if pick(op) {
			return fail
		}
		return pass
	}}
}

// appendOf matches the append of a job's WAL record of the given kind.
func appendOf(kind, job string) func(fsOp) bool {
	return func(op fsOp) bool {
		e := op.record()
		return op.kind == "append" && e.Kind == kind && e.Job == job
	}
}

// writeOf matches the atomic write of a file with the given base name.
func writeOf(name string) func(fsOp) bool {
	return func(op fsOp) bool { return op.kind == "write" && filepath.Base(op.path) == name }
}

// chromOf matches the append of the chrom record naming a job's chromosome.
func chromOf(job, name string) func(fsOp) bool {
	return func(op fsOp) bool {
		_, ok := op.record().Chroms[name]
		return appendOf(journal.KindChrom, job)(op) && ok
	}
}

// inStore reports whether op changes a file of the result store.
func inStore(op fsOp) bool {
	return strings.Contains(op.path, string(filepath.Separator)+"store"+string(filepath.Separator))
}

func anyOf(picks ...func(fsOp) bool) func(fsOp) bool {
	return func(op fsOp) bool {
		for _, p := range picks {
			if p(op) {
				return true
			}
		}
		return false
	}
}

// walkCase is one job lifecycle the crash walk drives.
type walkCase struct {
	life   string // cold, cached, joined or recovered
	chroms int
	spec   []byte // the job's JSON body
	base   map[string][]byte
}

// submit admits the case's job on srv, or returns nil when srv refuses it
// — a job the client never got a 202 for.
func (c walkCase) submit(t *testing.T, srv *Server) *jobState {
	t.Helper()
	spec, err := ParseJobSpec(c.spec)
	if err != nil {
		t.Fatal(err)
	}
	js, err := srv.submit(spec)
	if err != nil {
		return nil
	}
	return js
}

// settle waits for js, a job of srv, to reach a terminal state, which must
// be done or cached with every chromosome's stored bytes equal to the
// serial run's. With lossy — a server whose seam failed or died — a
// chromosome may instead have failed because its result could not be
// stored; the job then ends partial or failed, as a client would see it.
func (c walkCase) settle(t *testing.T, srv *Server, js *jobState, lossy bool) {
	t.Helper()
	select {
	case <-js.done:
	case <-time.After(time.Minute):
		t.Fatalf("job %s never reached a terminal state", js.id)
	}
	js.mu.Lock()
	state, recs := js.state, js.stream
	js.mu.Unlock()
	n, lost := 0, 0
	for _, r := range recs {
		if r.Final {
			continue
		}
		n++
		if lossy && r.State == StateFailed && strings.HasPrefix(r.Error, "storing the result: ") {
			lost++
			continue
		}
		if string(storedText(t, srv, r.out)) != base64.StdEncoding.EncodeToString(c.base[r.Name]) {
			t.Errorf("job %s: %s differs from the serial run", js.id, r.Name)
		}
	}
	if n != c.chroms {
		t.Errorf("job %s streamed %d chromosomes, want %d", js.id, n, c.chroms)
	}
	if ok := state == StateDone || state == StateCached; ok != (lost == 0) {
		t.Fatalf("job %s ended %q with %d chromosomes it could not store", js.id, state, lost)
	}
}

// storedText reads the payload r names from srv's store.
func storedText(t testing.TB, srv *Server, r ref) []byte {
	t.Helper()
	if r.n == 0 {
		return nil
	}
	text, err := os.ReadFile(srv.store.path(r.digest))
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// storeOwned checks that srv's store directory holds exactly the files
// srv references, no orphan and no dangling reference.
func storeOwned(t testing.TB, srv *Server) {
	t.Helper()
	ents, err := os.ReadDir(srv.store.dir)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, held []string
	for _, e := range ents {
		onDisk = append(onDisk, e.Name())
	}
	srv.store.mu.Lock()
	for d, f := range srv.store.files {
		if f.durable && f.refs > 0 {
			held = append(held, d)
		}
	}
	srv.store.mu.Unlock()
	slices.Sort(held)
	if !slices.Equal(onDisk, held) {
		t.Errorf("store holds %v, references %v", onDisk, held)
	}
}

// pendingJob leaves job j1 pending in a journal under jdir: done in its
// process, its first chromosome stored but never named in the WAL and its
// final record never written — what a crash after the job's last
// chromosome leaves, with an orphan in the store.
func (c walkCase) pendingJob(t *testing.T, jdir string) {
	t.Helper()
	fs := failing(anyOf(chromOf("j1", "chr01.fa"), appendOf(journal.KindFinal, "j1")))
	srv, err := New(Config{Workers: 1, JournalDir: jdir, fs: fs})
	if err != nil {
		t.Fatal(err)
	}
	js := c.submit(t, srv)
	if js == nil {
		t.Fatal("setup job refused")
	}
	c.settle(t, srv, js, false)
	drainT(t, srv)
}

// run drives the case's lifecycle on a server whose seam follows script
// from the journal's Open and the store's sweep on, then restarts on the os
// seam and checks what a crash or a failed operation must never break. It
// returns the number of operations the first server made, and without a
// script logs them.
func (c walkCase) run(t *testing.T, script func(int, fsOp) fate) int {
	jdir := filepath.Join(t.TempDir(), "journal")
	release := make(chan struct{})
	releaseLeader := sync.OnceFunc(func() { close(release) })
	defer releaseLeader()
	fs := &scriptFS{}
	if c.life == "joined" {
		// The leader's first chromosome waits until the follower is in, so
		// the follower always joins a running leader.
		fs.gate = func(op fsOp) {
			if op.kind == "write" && inStore(op) {
				<-release
			}
		}
	}

	// acked lists the jobs the first server acknowledged, by id.
	var acked []string
	if c.life == "recovered" {
		c.pendingJob(t, jdir)
		acked = []string{"j1"}
	}
	fs.arm(script)
	srvA, err := New(Config{Workers: 1, JournalDir: jdir, fs: fs})
	if err == nil {
		var jobs []*jobState
		ack := func(js *jobState) {
			if js != nil {
				jobs = append(jobs, js)
			}
		}
		switch c.life {
		case "recovered":
			srvA.mu.Lock()
			ack(srvA.jobs["j1"])
			srvA.mu.Unlock()
		case "cold":
			ack(c.submit(t, srvA))
		case "cached":
			if js := c.submit(t, srvA); js != nil {
				ack(js)
				c.settle(t, srvA, js, script != nil)
			}
			ack(c.submit(t, srvA))
		case "joined":
			ack(c.submit(t, srvA))
			ack(c.submit(t, srvA))
			releaseLeader()
		}
		for _, js := range jobs {
			c.settle(t, srvA, js, script != nil)
			if c.life != "recovered" {
				acked = append(acked, js.id)
			}
		}
		drainT(t, srvA)
	}
	ops := fs.done()
	if script == nil {
		for i, op := range ops {
			t.Logf("%2d %s", i+1, op.describe(jdir))
		}
	}

	// A job whose final record is on disk ended in the first process; every
	// other acknowledged job must recover.
	finals := map[string]bool{}
	for _, id := range acked {
		finals[id] = walHasFinal(t, jdir, id)
	}
	var dequeues atomic.Int64
	srvB, err := New(Config{Workers: 1, JournalDir: jdir, OnDequeue: func(string, int) { dequeues.Add(1) }})
	if err != nil {
		t.Fatalf("the WAL does not reopen: %v", err)
	}
	for _, id := range acked {
		srvB.mu.Lock()
		js := srvB.jobs[id]
		srvB.mu.Unlock()
		switch {
		case js != nil:
			c.settle(t, srvB, js, false)
		case !finals[id]:
			t.Errorf("acknowledged job %s neither ended durably nor recovered", id)
		}
	}
	// An identical resubmission, with whatever recovered: the job's work
	// executes at most once.
	js := c.submit(t, srvB)
	if js == nil {
		t.Fatal("resubmission refused")
	}
	c.settle(t, srvB, js, false)
	if n := dequeues.Load(); n > int64(c.chroms) {
		t.Errorf("the restarted server executed %d chromosomes for a %d-chromosome job", n, c.chroms)
	}
	drainT(t, srvB)
	storeOwned(t, srvB)

	if ents, err := os.ReadDir(filepath.Join(jdir, "spool")); err != nil || len(ents) != 0 {
		t.Errorf("spool holds %d entries (%v) with no job pending", len(ents), err)
	}
	// A third start finds nothing pending and sweeps the store empty.
	srvC, err := New(Config{Workers: 1, JournalDir: jdir})
	if err != nil {
		t.Fatalf("the WAL does not reopen after recovery: %v", err)
	}
	if n := srvC.Statz().RecoveredJobs; n != 0 {
		t.Errorf("%d job(s) still pending after every job settled", n)
	}
	if ents, err := os.ReadDir(srvC.store.dir); err != nil || len(ents) != 0 {
		t.Errorf("store holds %d files (%v) after a restart with no job pending", len(ents), err)
	}
	drainT(t, srvC)
	return len(ops)
}

// TestServiceJournalCrashWalk walks every operation a server makes through
// the durable-write seam — the journal's Open and the store's sweep, then
// every spool, store and WAL operation of a job — over its cold, cached,
// joined and recovered lifecycles, with one and three chromosomes, from a
// genome directory and from uploaded inputs. At each operation k it runs
// twice: once failing operation k, once dying at it (a torn append,
// nothing after). The first server's jobs settle with the serial run's
// bytes, except chromosomes whose result it could not store. A fresh
// server on the os seam then reopens the same journal, and every
// acknowledged job settles done or cached with the serial run's bytes, an
// identical resubmission executes at most once, no spool directory
// outlives its job, the store holds exactly the files the server
// references, and a third start recovers nothing and sweeps the store
// empty. (A directory fsync that a power cut would lose is beyond what a
// process-level walk can observe.)
func TestServiceJournalCrashWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("service e2e in -short mode")
	}
	opts := genomejob.Options{Engine: "gsnp-cpu", Format: "soap", Window: 256}
	for _, chroms := range []int{1, 3} {
		dir := t.TempDir()
		writeGenomeDir(t, dir, testSpecs(chroms, 600, 61))
		base := serialBaseline(t, dir, opts)
		var names []string
		for i := 1; i <= chroms; i++ {
			names = append(names, fmt.Sprintf("chr%02d", i))
		}
		for _, input := range []string{"genome_dir", "upload"} {
			spec := map[string]any{"genome_dir": dir, "engine": "gsnp-cpu", "window": 256}
			if input == "upload" {
				spec = uploadSpec(t, dir, names...)
			}
			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			for _, life := range []string{"cold", "cached", "joined", "recovered"} {
				c := walkCase{life: life, chroms: chroms, spec: body, base: base}
				t.Run(fmt.Sprintf("%s/%s/%d", life, input, chroms), func(t *testing.T) {
					t.Parallel()
					n := c.run(t, nil)
					for k := 1; k <= n; k++ {
						for _, f := range []fate{fail, die} {
							t.Run(fmt.Sprintf("%s@%d", f, k), func(t *testing.T) {
								c.run(t, func(n int, _ fsOp) fate {
									if n == k {
										return f
									}
									return pass
								})
							})
						}
					}
				})
			}
		}
	}
}
