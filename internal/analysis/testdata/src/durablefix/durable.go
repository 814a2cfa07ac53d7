// Package durablefix exercises the durability analyzer: a non-main package
// changes the disk only through the durable-write seam, implemented in
// durablefix/internal/checkpoint. Every mutating os call here is a
// finding, whatever its path is called; reads are not.
package durablefix

import (
	"os"
	"path/filepath"

	"fixture/durablefix/internal/checkpoint"
)

type journal struct {
	dir string
	fs  checkpoint.FS
}

// --- positive: each mutating os call, durable-sounding path or not.

func (j *journal) record(name string, data []byte) error {
	return os.WriteFile(filepath.Join(j.dir, name), data, 0o644) // want "os.WriteFile changes the disk outside the durable-write seam"
}

func scratch(tmpDir string, data []byte) error {
	return os.WriteFile(filepath.Join(tmpDir, "scratch.bin"), data, 0o644) // want "os.WriteFile changes the disk"
}

func create(target string) error {
	f, err := os.Create(target) // want "os.Create changes the disk"
	if err != nil {
		return err
	}
	return f.Close()
}

func (j *journal) reopen(walPath string) (*os.File, error) {
	return os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644) // want "os.OpenFile changes the disk"
}

func tidy(dir, tmp string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil { // want "os.MkdirAll changes the disk"
		return err
	}
	if err := os.Mkdir(filepath.Join(dir, "sub"), 0o755); err != nil { // want "os.Mkdir changes the disk"
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, "x")); err != nil { // want "os.Rename changes the disk"
		return err
	}
	if err := os.Truncate(filepath.Join(dir, "x"), 0); err != nil { // want "os.Truncate changes the disk"
		return err
	}
	if err := os.Remove(filepath.Join(dir, "x")); err != nil { // want "os.Remove changes the disk"
		return err
	}
	return os.RemoveAll(dir) // want "os.RemoveAll changes the disk"
}

func temps() error {
	f, err := os.CreateTemp("", "x-*") // want "os.CreateTemp changes the disk"
	if err != nil {
		return err
	}
	f.Close()
	_, err = os.MkdirTemp("", "y-*") // want "os.MkdirTemp changes the disk"
	return err
}

// --- negative: reading, and changing the disk through the seam.

func (j *journal) load(name string) ([]byte, error) {
	f, err := os.OpenFile(filepath.Join(j.dir, name), os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	f.Close()
	if _, err := os.Stat(j.dir); err != nil {
		return nil, err
	}
	return os.ReadFile(filepath.Join(j.dir, name))
}

func (j *journal) save(name string, data []byte) error {
	if err := j.fs.MkdirAll(j.dir); err != nil {
		return err
	}
	return checkpoint.AtomicWrite(filepath.Join(j.dir, name), data)
}

// --- suppression: a reasoned ignore is the documented escape hatch.

func (j *journal) debugDump(data []byte) error {
	//gsnplint:ignore durability scratch debug dump, never read back after a crash
	return os.WriteFile(filepath.Join(j.dir, "debug.txt"), data, 0o644)
}
