package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay: for any WAL bytes, Open never panics, and when it
// succeeds, compaction is idempotent — reopening the compacted WAL gives
// the same Pending() and rewrites the same bytes. The seeds are the
// committed corpus under testdata/fuzz/FuzzJournalReplay.
func FuzzJournalReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, wal []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, WALName)
		if err := os.WriteFile(path, wal, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(Config{Dir: dir})
		if err != nil {
			return
		}
		first, err := json.Marshal(j.Pending())
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		compacted, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}

		j, err = Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("reopening the compacted WAL: %v\n%s", err, compacted)
		}
		second, err := json.Marshal(j.Pending())
		if err != nil {
			t.Fatal(err)
		}
		j.Close()
		if !bytes.Equal(first, second) {
			t.Fatalf("Pending changed across a reopen:\n%s\n%s", first, second)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(compacted, again) {
			t.Fatalf("compaction is not idempotent:\n%s\n%s", compacted, again)
		}
	})
}
