package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

// TestOSWriteFileLeavesOnlyTarget: the atomic write replaces the target
// and leaves no temp file behind in its directory.
func TestOSWriteFileLeavesOnlyTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out")
	for _, content := range []string{"first\n", "second\n"} {
		if err := OS.WriteFile(path, []byte(content)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != content {
			t.Fatalf("after writing %q: %q, %v", content, got, err)
		}
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only the target", len(ents), err)
	}
	if err := OS.WriteFile(filepath.Join(dir, "missing", "out"), nil); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}

// TestOSMkdirAll: missing parents are created, an existing directory is
// fine, and a regular file in the way is an error.
func TestOSMkdirAll(t *testing.T) {
	dir := t.TempDir()
	deep := filepath.Join(dir, "a", "b", "c")
	for range 2 {
		if err := OS.MkdirAll(deep); err != nil {
			t.Fatal(err)
		}
	}
	if fi, err := os.Stat(deep); err != nil || !fi.IsDir() {
		t.Fatalf("stat %s: %v", deep, err)
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := OS.MkdirAll(filepath.Join(file, "sub")); err == nil {
		t.Fatal("MkdirAll under a regular file succeeded")
	}
	if err := OS.RemoveAll(filepath.Join(dir, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(deep); !os.IsNotExist(err) {
		t.Fatalf("tree survived RemoveAll: %v", err)
	}
}

// TestOSLog: appends land in order after the existing content, and a log
// whose repair failed refuses every later append.
func TestOSLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := OS.OpenLog(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []string{"b\n", "c\n"} {
		if err := l.Append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "a\nb\nc\n" {
		t.Fatalf("log holds %q (%v)", got, err)
	}
	if ol := l.(*osLog); ol.size != 6 {
		t.Fatalf("tracked size %d, want 6", ol.size)
	}
	// A closed handle fails the write and the truncate both.
	l.(*osLog).f.Close()
	for range 2 {
		if err := l.Append([]byte("d\n")); err == nil {
			t.Fatal("append through a broken log succeeded")
		}
	}
	if l.(*osLog).broken == nil {
		t.Fatal("a failed repair did not mark the log broken")
	}
	if _, err := OS.OpenLog(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("OpenLog created a missing file")
	}
}
