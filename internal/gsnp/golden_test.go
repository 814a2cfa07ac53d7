package gsnp

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gsnp/internal/pipeline"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden result table")

// TestGoldenOutput freezes a complete result table for a small
// deterministic workload. Any change to the statistical model, the row
// format or the engines shows up as a diff here before it reaches users.
// Regenerate deliberately with:
//
//	go test ./internal/gsnp -run TestGoldenOutput -update-golden
//
// (The file depends on math.Log10's bit-level behaviour, which the Go
// runtime keeps stable across platforms for a given algorithm; if a Go
// release changes it, regenerating is the intended response.)
func TestGoldenOutput(t *testing.T) {
	ds := testDataset(t, 1500, 9, 2024)
	_, got := runGSNP(t, ds, pipeline.Config{Window: 400}, Config{Mode: ModeCPU})

	path := filepath.Join("testdata", "golden_chr.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten (%d bytes)", len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		// Locate the first differing line for a readable failure.
		gl := bytes.Split(got, []byte{'\n'})
		wl := bytes.Split(want, []byte{'\n'})
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("output diverged from golden at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("output length diverged from golden: %d vs %d bytes", len(got), len(want))
	}
}
