package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
)

// FS is the durable-write seam: every change the gsnpd journal, its spool
// and the CLI's manifest make to the disk is one of these operations, and
// OS is the only implementation that calls the os package to make it.
// Tests substitute an FS that counts, fails or stops at any operation; the
// durability analyzer (gsnplint) refuses a mutating os call anywhere else.
type FS interface {
	// WriteFile replaces path with data atomically and durably: temp file,
	// fsync, rename, fsync of the parent directory. A crash leaves the old
	// content or the new, and once it returns the new survives power loss.
	WriteFile(path string, data []byte) error
	// OpenLog opens the existing file at path for appending.
	OpenLog(path string) (Log, error)
	// MkdirAll creates dir and any missing parents, fsyncing the parent of
	// each directory it creates, so a new directory survives power loss.
	MkdirAll(dir string) error
	// RemoveAll removes path and everything under it. It does not fsync: a
	// removal a crash undoes leaves debris, which the journal's Open sweeps.
	RemoveAll(path string) error
}

// Log is an append-only file. It is not safe for concurrent use.
type Log interface {
	// Append writes p at the end of the file and fsyncs it. A failed append
	// is truncated back out, so the file never keeps a torn record; when
	// even that repair fails, this and every later Append fail.
	Append(p []byte) error
	Close() error
}

// OS is the production FS.
var OS FS = osFS{}

type osFS struct{}

func (osFS) WriteFile(path string, data []byte) error { return AtomicWrite(path, data) }

func (osFS) RemoveAll(path string) error { return os.RemoveAll(path) }

func (fs osFS) MkdirAll(dir string) error {
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		return nil
	}
	parent := filepath.Dir(dir)
	if parent != dir {
		if err := fs.MkdirAll(parent); err != nil {
			return err
		}
	}
	if err := os.Mkdir(dir, 0o755); err != nil {
		if fi, serr := os.Stat(dir); serr == nil && fi.IsDir() {
			return nil // created concurrently
		}
		return err
	}
	return syncDir(parent)
}

func (osFS) OpenLog(path string) (Log, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &osLog{f: f, size: fi.Size()}, nil
}

// AtomicWrite replaces path with data via temp file + fsync + rename +
// fsync of the directory, so a crash at any point leaves either the old
// content or the new, never a torn file, and a returned write survives
// power loss. It is OS's WriteFile.
func AtomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if serr := f.Sync(); werr == nil {
		werr = serr
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the entries created or renamed in it
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// osLog is OS's Log: size is the file's length after the last good append,
// what a failed one is truncated back to.
type osLog struct {
	f      *os.File
	size   int64
	broken error
}

func (l *osLog) Append(p []byte) error {
	if l.broken != nil {
		return fmt.Errorf("log unusable after a failed repair: %w", l.broken)
	}
	_, err := l.f.Write(p)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = terr
		}
		return err
	}
	l.size += int64(len(p))
	return nil
}

func (l *osLog) Close() error { return l.f.Close() }
