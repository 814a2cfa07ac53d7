// Package checkpoint is the fixture's durable-write seam: its import path
// ends in internal/checkpoint, so its os calls are the implementation the
// rest of the load must go through, and durability raises nothing here.
package checkpoint

import (
	"os"
	"path/filepath"
)

// FS is the seam.
type FS interface {
	MkdirAll(dir string) error
}

// AtomicWrite is temp file + fsync + rename + directory fsync.
func AtomicWrite(path string, data []byte) error {
	f, err := os.CreateTemp(filepath.Dir(path), "tmp-*")
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(f.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}
