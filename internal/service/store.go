package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"gsnp/internal/checkpoint"
)

// The result store keeps every payload gsnpd serves out of its heap: one
// file per distinct base64 text under <root>/store, named by the text's
// sha256, so identical results share a file. A file is written once,
// through the durable-write seam, before any record referring to it is
// published, and never changes after: streams map it, and a mapped file
// must not shrink. Two things pin a file — a job's stream (while the job
// is registered, cached, streamed to a client or tailed by another job)
// and the writer that just stored it — and the last release removes it.

// ref names one stored payload: the digest of its text, which is also its
// file name, and the text's length. The zero ref is no payload.
type ref struct {
	digest string
	n      int
}

// store is the content-addressed result store: reference counts per file,
// and the files' count and bytes for /statz.
type store struct {
	fs   checkpoint.FS
	dir  string
	logf func(format string, args ...any)

	mu    sync.Mutex
	files map[string]*storedFile
	stats StoreStats
}

// storedFile is one digest's reference count. durable is false while its
// first write is in flight, or after every write of it failed.
type storedFile struct {
	refs, n int
	durable bool
}

// StoreStats is the /statz view of the result store.
type StoreStats struct {
	Files int   `json:"files"`
	Bytes int64 `json:"bytes"`
}

// openStore opens the store under dir and sweeps it: every file there that
// keep does not name — a payload no pending job refers to, or a temp file
// a crash left — is removed.
func openStore(fs checkpoint.FS, dir string, keep map[string]bool, logf func(string, ...any)) (*store, error) {
	if err := fs.MkdirAll(dir); err != nil {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	st := &store{fs: fs, dir: dir, logf: logf, files: make(map[string]*storedFile)}
	for _, e := range ents {
		if keep[e.Name()] {
			continue
		}
		if err := fs.RemoveAll(st.path(e.Name())); err != nil {
			logf("store: sweep: %v", err)
		}
	}
	return st, nil
}

func (st *store) path(digest string) string { return filepath.Join(st.dir, digest) }

// put stores text and returns one reference to it, which the caller hands
// on or releases. Text already stored is only referenced again; otherwise
// it is written, atomically and durably, outside the lock, so no other
// chromosome waits on this write.
func (st *store) put(text []byte) (ref, error) {
	sum := sha256.Sum256(text)
	r := ref{digest: hex.EncodeToString(sum[:]), n: len(text)}
	st.mu.Lock()
	f := st.files[r.digest]
	if f == nil {
		f = &storedFile{n: r.n}
		st.files[r.digest] = f
	}
	f.refs++
	durable := f.durable
	st.mu.Unlock()
	if durable {
		return r, nil
	}
	// A concurrent put of the same text writes the same bytes: the rename
	// of either leaves the file whole.
	if err := st.fs.WriteFile(st.path(r.digest), text); err != nil {
		st.release(r)
		return ref{}, err
	}
	st.mu.Lock()
	st.madeDurable(f)
	st.mu.Unlock()
	return r, nil
}

// adopt references a file a previous process stored and a pending job
// names, hashed as a stream and never read into memory: a missing, torn
// or tampered file is an error.
func (st *store) adopt(digest string) (ref, error) {
	st.mu.Lock()
	if f := st.files[digest]; f != nil && f.durable {
		f.refs++
		st.mu.Unlock()
		return ref{digest: digest, n: f.n}, nil
	}
	st.mu.Unlock()
	fi, err := os.Stat(st.path(digest))
	if err != nil {
		return ref{}, err
	}
	got, err := checkpoint.FileDigest(st.path(digest))
	if err != nil {
		return ref{}, err
	}
	if got != digest {
		return ref{}, fmt.Errorf("store: file %s does not match its digest", digest)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	f := st.files[digest]
	if f == nil {
		f = &storedFile{n: int(fi.Size())}
		st.files[digest] = f
	}
	f.refs++
	st.madeDurable(f)
	return ref{digest: digest, n: f.n}, nil
}

// madeDurable marks f as on disk. Caller holds st.mu.
func (st *store) madeDurable(f *storedFile) {
	if !f.durable {
		f.durable = true
		st.stats.Files++
		st.stats.Bytes += int64(f.n)
	}
}

// acquire takes one more reference to a payload someone already holds.
func (st *store) acquire(r ref) {
	if r.digest != "" {
		st.mu.Lock()
		st.files[r.digest].refs++
		st.mu.Unlock()
	}
}

// release drops one reference; the last removes the file.
func (st *store) release(r ref) {
	if r.digest == "" {
		return
	}
	st.mu.Lock()
	f := st.files[r.digest]
	f.refs--
	var err error
	if f.refs == 0 {
		delete(st.files, r.digest)
		if f.durable {
			st.stats.Files--
			st.stats.Bytes -= int64(f.n)
			// Under the lock: a put of the same text after this must find
			// the file gone, not lose its fresh copy to this removal.
			err = st.fs.RemoveAll(st.path(r.digest))
		}
	}
	st.mu.Unlock()
	if err != nil {
		st.logf("store: removing %s: %v (the next start sweeps it)", r.digest, err)
	}
}

// snapshot returns the store's file count and bytes.
func (st *store) snapshot() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// writeTo writes the payload r names to w from a read-only mapping of its
// file, so the text never passes through the heap. r must be held and
// non-empty.
func (st *store) writeTo(w io.Writer, r ref) error {
	f, err := os.Open(st.path(r.digest))
	if err != nil {
		return err
	}
	defer f.Close()
	// A mapping past the end of a file faults on access; files never
	// shrink, and one changed behind the store's back is refused here.
	if fi, err := f.Stat(); err != nil || fi.Size() != int64(r.n) {
		return fmt.Errorf("store: file %s is not the %d bytes stored (%v)", r.digest, r.n, err)
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, r.n, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return err
	}
	_, err = w.Write(m)
	if uerr := syscall.Munmap(m); err == nil {
		err = uerr
	}
	return err
}
