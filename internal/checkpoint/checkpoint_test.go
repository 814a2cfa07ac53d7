package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fp := Fingerprint("gsnp-cpu", "soap", 0, false, false)
	out := filepath.Join(dir, "chr1.result")
	writeFile(t, out, "rows\n")

	w, err := NewWriter(Path(dir), fp, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Done("chr1"); ok {
		t.Fatal("empty manifest claims chr1 done")
	}
	if err := w.CompleteDigest("chr1", out, digestOf(t, out), 1234); err != nil {
		t.Fatal(err)
	}

	// A resumed writer under the same fingerprint sees the entry.
	w2, err := NewWriter(Path(dir), fp, true)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := w2.Done("chr1")
	if !ok || e.Sites != 1234 || e.Output != "chr1.result" {
		t.Fatalf("Done = %+v, %v; want chr1.result/1234", e, ok)
	}
}

func TestDigestMismatchInvalidatesEntry(t *testing.T) {
	dir := t.TempDir()
	fp := Fingerprint("gsnp-cpu", "soap", 0, false, false)
	out := filepath.Join(dir, "chr1.result")
	writeFile(t, out, "rows\n")
	w, err := NewWriter(Path(dir), fp, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CompleteDigest("chr1", out, digestOf(t, out), 10); err != nil {
		t.Fatal(err)
	}

	writeFile(t, out, "tampered\n")
	w2, err := NewWriter(Path(dir), fp, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := w2.Done("chr1"); ok {
		t.Fatal("tampered output accepted")
	}
	// Deleted output is invalid too.
	os.Remove(out)
	if _, ok := w2.Done("chr1"); ok {
		t.Fatal("missing output accepted")
	}
}

func TestFingerprintMismatchRefusesResume(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "chr1.result")
	writeFile(t, out, "rows\n")
	w, err := NewWriter(Path(dir), Fingerprint("gsnp-cpu", "soap", 0, false, false), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.CompleteDigest("chr1", out, digestOf(t, out), 10); err != nil {
		t.Fatal(err)
	}
	_, err = NewWriter(Path(dir), Fingerprint("soapsnp", "soap", 0, false, false), true)
	if err == nil || !strings.Contains(err.Error(), "written under") {
		t.Fatalf("err = %v, want fingerprint mismatch", err)
	}
	// Without -resume the stale manifest is simply replaced.
	if _, err := NewWriter(Path(dir), Fingerprint("soapsnp", "soap", 0, false, false), false); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	m, err := Load(Path(dir))
	if m != nil || err != nil {
		t.Fatalf("missing manifest: %v, %v; want nil, nil", m, err)
	}
	writeFile(t, Path(dir), "{not json")
	if _, err := Load(Path(dir)); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	writeFile(t, Path(dir), `{"version": 99, "done": {}}`)
	if _, err := Load(Path(dir)); err == nil {
		t.Fatal("wrong-version manifest accepted")
	}
}

func TestFailureReportSave(t *testing.T) {
	dir := t.TempDir()
	rep := &FailureReport{
		Fingerprint: Fingerprint("gsnp-cpu", "soap", 0, false, false),
		ExitCode:    2,
		Tasks: []TaskReport{
			{Name: "chr1", Status: StatusOK, Output: "chr1.result", Sites: 100},
			{Name: "chr2", Status: StatusFailed, Error: "boom", Attempts: 3},
		},
	}
	path := filepath.Join(dir, "report.json")
	if err := rep.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"exit_code": 2`, `"status": "failed"`, `"boom"`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("report missing %q:\n%s", want, data)
		}
	}
}

// digestOf returns the SHA-256 of path, as a caller of CompleteDigest
// hashes the output it wrote.
func digestOf(t *testing.T, path string) string {
	t.Helper()
	sum, err := FileDigest(path)
	if err != nil {
		t.Fatal(err)
	}
	return sum
}
