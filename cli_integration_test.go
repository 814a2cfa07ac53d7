package gsnp_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"gsnp/internal/checkpoint"
	"gsnp/internal/seqsim"
	"gsnp/internal/snpio"
)

// buildTools compiles the command-line tools once per test binary run.
var buildTools = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "gsnp-bin-*")
	if err != nil {
		return "", err
	}
	for _, tool := range []string{"gsnp", "gsnp-gen", "gsnp-align", "gsnp-dump", "gsnp-experiments", "gsnpd"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool)
		out, err := cmd.CombinedOutput()
		if err != nil {
			return "", &buildError{tool: tool, out: string(out), err: err}
		}
	}
	return dir, nil
})

type buildError struct {
	tool string
	out  string
	err  error
}

func (e *buildError) Error() string {
	return "building " + e.tool + ": " + e.err.Error() + "\n" + e.out
}

// run executes a built tool, failing the test on non-zero exit.
func run(t *testing.T, bin string, args ...string) (stdout, stderr string) {
	t.Helper()
	dir, err := buildTools()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(dir, bin), args...)
	var so, se bytes.Buffer
	cmd.Stdout = &so
	cmd.Stderr = &se
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\nstdout:\n%s\nstderr:\n%s", bin, args, err, so.String(), se.String())
	}
	return so.String(), se.String()
}

// runCode executes a built tool and returns its exit code alongside the
// captured output — for flows where a non-zero exit is the expectation
// (partial results exit 2, fatal errors exit 1).
func runCode(t *testing.T, bin string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	dir, err := buildTools()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(dir, bin), args...)
	var so, se bytes.Buffer
	cmd.Stdout = &so
	cmd.Stderr = &se
	if err := cmd.Run(); err != nil {
		var ee *exec.ExitError
		if !errors.As(err, &ee) {
			t.Fatalf("%s %v: %v", bin, args, err)
		}
		code = ee.ExitCode()
	}
	return code, so.String(), se.String()
}

// TestCLIFullChain drives the complete production flow through the built
// binaries: generate -> align -> call (all three engines) -> dump.
func TestCLIFullChain(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()

	// Generate a workload with raw FASTQ reads.
	_, genErr := run(t, "gsnp-gen", "-out", dir, "-sites", "12000", "-depth", "9", "-seed", "33", "-fastq")
	if !strings.Contains(genErr+"", "") {
		t.Log(genErr)
	}
	for _, f := range []string{"chrSim.fa", "chrSim.soap", "chrSim.snp", "chrSim.fq", "chrSim.truth"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Fatalf("generator did not write %s: %v", f, err)
		}
	}

	// Align the raw reads (independent of the generator's own alignments).
	run(t, "gsnp-align",
		"-ref", filepath.Join(dir, "chrSim.fa"),
		"-fastq", filepath.Join(dir, "chrSim.fq"),
		"-out", filepath.Join(dir, "aligned.soap"))

	// Call SNPs with all three engines over the generator's alignments;
	// outputs must be byte-identical.
	var outputs [][]byte
	for _, engine := range []string{"soapsnp", "gsnp-cpu", "gsnp-gpu"} {
		out := filepath.Join(dir, "result-"+engine+".txt")
		run(t, "gsnp",
			"-ref", filepath.Join(dir, "chrSim.fa"),
			"-aln", filepath.Join(dir, "chrSim.soap"),
			"-snp", filepath.Join(dir, "chrSim.snp"),
			"-engine", engine, "-out", out)
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, data)
	}
	if !bytes.Equal(outputs[0], outputs[1]) || !bytes.Equal(outputs[0], outputs[2]) {
		t.Fatal("engine outputs differ through the CLI")
	}

	// Compressed output and the dump tool.
	blob := filepath.Join(dir, "result.gsnp")
	run(t, "gsnp",
		"-ref", filepath.Join(dir, "chrSim.fa"),
		"-aln", filepath.Join(dir, "chrSim.soap"),
		"-snp", filepath.Join(dir, "chrSim.snp"),
		"-engine", "gsnp-gpu", "-compress", "-out", blob)
	dumped, _ := run(t, "gsnp-dump", blob)
	if !bytes.Equal([]byte(dumped), outputs[0]) {
		t.Fatal("gsnp-dump output differs from the text engines")
	}

	// VCF export is a valid non-empty VCF when SNPs exist.
	vcf, _ := run(t, "gsnp-dump", "-vcf", blob)
	if !strings.HasPrefix(vcf, "##fileformat=VCFv4.2") {
		t.Error("VCF export missing header")
	}

	// The SAM input path agrees with the SOAP path (conversion done via
	// the calling engine's own output equality, checked in unit tests;
	// here we just confirm the flag is accepted end to end).
	_, statsErr := run(t, "gsnp",
		"-ref", filepath.Join(dir, "chrSim.fa"),
		"-aln", filepath.Join(dir, "aligned.soap"),
		"-engine", "gsnp-cpu", "-stats", "-out", os.DevNull)
	if !strings.Contains(statsErr, "gsnp-cpu:") {
		t.Errorf("-stats output missing: %q", statsErr)
	}
}

// TestCLILongReads calls 150 bp reads — longer than SOAPsnp's historical
// 100, well inside the model's 256 — through the built binary: every engine
// exits 0 and they write identical rows and identical VCF. (The read length
// used to be an engine setting nothing set: gsnp-cpu indexed out of range,
// and soapsnp and gsnp-gpu disagreed on most rows.)
func TestCLILongReads(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	ref := seqsim.GenerateReference(seqsim.GenomeSpec{Name: "chrL", Length: 12000, Seed: 150})
	rspec := seqsim.DefaultReadSpec(12, 152)
	rspec.ReadLen = 150
	rs, _ := seqsim.SampleReads(seqsim.MakeDiploid(ref, seqsim.DefaultDiploidSpec(151)), rspec)
	fa, soap := filepath.Join(dir, "chrL.fa"), filepath.Join(dir, "chrL.soap")
	for path, write := range map[string]func(f *os.File) error{
		fa:   func(f *os.File) error { return snpio.WriteFASTA(f, snpio.FASTARecord{Name: "chrL", Seq: ref.Seq}) },
		soap: func(f *os.File) error { return snpio.WriteSOAP(f, "chrL", rs) },
	} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := write(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, format := range []string{"rows", "vcf"} {
		var outputs [][]byte
		for _, engine := range []string{"soapsnp", "gsnp-cpu", "gsnp-gpu"} {
			out := filepath.Join(dir, engine+"."+format)
			run(t, "gsnp", "-ref", fa, "-aln", soap, "-engine", engine,
				"-window", "1000", "-output-format", format, "-out", out)
			data, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			outputs = append(outputs, data)
		}
		if len(outputs[0]) == 0 || !bytes.Equal(outputs[0], outputs[1]) || !bytes.Equal(outputs[0], outputs[2]) {
			t.Errorf("%s: engine outputs differ on 150 bp reads (%d, %d, %d bytes)",
				format, len(outputs[0]), len(outputs[1]), len(outputs[2]))
		}
	}
}

// refLen is the length of the one sequence in a FASTA file.
func refLen(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := snpio.ReadFASTA(f)
	if err != nil || len(recs) != 1 {
		t.Fatalf("%s: %d records (%v), want 1", path, len(recs), err)
	}
	return len(recs[0].Seq)
}

// countLines counts newline-terminated records in a file.
func countLines(t *testing.T, path string) int {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Count(data, []byte{'\n'})
}

// compareResults requires every *.result file of wantDir to exist in gotDir
// with identical bytes.
func compareResults(t *testing.T, wantDir, gotDir string) {
	t.Helper()
	wants, err := filepath.Glob(filepath.Join(wantDir, "*.result"))
	if err != nil || len(wants) == 0 {
		t.Fatalf("no baseline results in %s: %v", wantDir, err)
	}
	for _, w := range wants {
		name := filepath.Base(w)
		want, err := os.ReadFile(w)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, name))
		if err != nil {
			t.Errorf("%s missing after recovery: %v", name, err)
			continue
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs from the clean serial baseline", name)
		}
	}
}

// TestCLISingleFileQuarantineExitCodes: in single-file mode, injected
// corruption with -quarantine completes degraded (exit 2, quarantine lines
// on stderr); without -quarantine the same input is fatal (exit 1).
func TestCLISingleFileQuarantineExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "gsnp-gen", "-out", dir, "-sites", "4000", "-depth", "8", "-seed", "7")
	args := []string{
		"-ref", filepath.Join(dir, "chrSim.fa"),
		"-aln", filepath.Join(dir, "chrSim.soap"),
		"-engine", "gsnp-cpu", "-window", "1000",
		"-out", filepath.Join(dir, "out.txt"),
		"-faults", "corrupt-every=100",
	}
	code, _, stderr := runCode(t, "gsnp", append(args, "-quarantine")...)
	if code != 2 {
		t.Fatalf("quarantined run exit = %d, want 2\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "quarantined") {
		t.Errorf("stderr misses the quarantine record:\n%s", stderr)
	}
	if code, _, _ := runCode(t, "gsnp", args...); code != 1 {
		t.Fatalf("strict run exit = %d, want 1", code)
	}
}

// TestCLISingleFileIsOneUnit: a single-file run is a genome run of one
// chromosome, so the fault-tolerance flags act on it as on a genome
// directory — -retries cures a transient fault, -failure-report lists its
// one task, a failed run leaves no output file — and only -resume, which
// needs the directory's manifest, is refused. Output on stdout is the
// bytes -out writes, and an attempt that already printed is not retried.
func TestCLISingleFileIsOneUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "gsnp-gen", "-out", dir, "-sites", "40000", "-depth", "8", "-seed", "7")
	in := []string{
		"-ref", filepath.Join(dir, "chrSim.fa"),
		"-aln", filepath.Join(dir, "chrSim.soap"),
		"-engine", "gsnp-cpu", "-window", "1000",
	}
	with := func(extra ...string) []string { return append(append([]string(nil), in...), extra...) }
	read := func(name string) []byte {
		t.Helper()
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	run(t, "gsnp", with("-out", filepath.Join(dir, "clean.txt"), "-workers", "1")...)
	clean := read("clean.txt")
	if stdout, _ := run(t, "gsnp", in...); stdout != string(clean) {
		t.Errorf("stdout run wrote %d bytes, -out run %d: they differ", len(stdout), len(clean))
	}

	// A transient I/O error at record 5 fails the first attempt; -retries
	// reruns it to the clean bytes.
	reportPath := filepath.Join(dir, "report.json")
	code, _, stderr := runCode(t, "gsnp", with("-out", filepath.Join(dir, "retried.txt"),
		"-faults", "transient-every=5", "-retries", "1", "-failure-report", reportPath)...)
	if code != 0 {
		t.Fatalf("-retries 1 over one transient fault: exit %d, want 0\nstderr:\n%s", code, stderr)
	}
	if !bytes.Equal(read("retried.txt"), clean) {
		t.Error("retried run differs from the clean run")
	}
	var fr checkpoint.FailureReport
	if err := json.Unmarshal(read("report.json"), &fr); err != nil {
		t.Fatalf("failure report does not parse: %v", err)
	}
	if fr.ExitCode != 0 || len(fr.Tasks) != 1 || fr.Tasks[0].Status != checkpoint.StatusOK ||
		fr.Tasks[0].Attempts != 2 || fr.Tasks[0].Output != "retried.txt" {
		t.Errorf("failure report %+v: want exit 0 and one ok task of 2 attempts writing retried.txt", fr)
	}

	// A failed or panicking run leaves no half-written output behind.
	failed := filepath.Join(dir, "failed.txt")
	for _, spec := range []string{"corrupt-every=100", "panic-window=30"} {
		code, _, stderr = runCode(t, "gsnp", with("-out", failed, "-faults", spec)...)
		if code != 1 || !strings.Contains(stderr, "FAILED") {
			t.Errorf("%s: exit %d, want 1 with the chromosome FAILED\nstderr:\n%s", spec, code, stderr)
		}
		if _, err := os.Stat(failed); !os.IsNotExist(err) {
			t.Errorf("%s: failed run left its output behind (stat: %v)", spec, err)
		}
	}

	// Window 30 panics once. By then more than the driver's 1 MB output
	// buffer has gone to stdout, which a retry cannot take back.
	code, stdout, stderr := runCode(t, "gsnp", with("-faults", "panic-window=30", "-retries", "1")...)
	if code != 1 || !strings.Contains(stderr, "FAILED after 1 attempt(s)") || len(stdout) >= len(clean) {
		t.Errorf("stdout run panicking after output: exit %d with %d of %d bytes, want 1 after one attempt\nstderr:\n%s",
			code, len(stdout), len(clean), stderr)
	}

	code, _, stderr = runCode(t, "gsnp", with("-resume")...)
	if code != 1 || !strings.Contains(stderr, "-resume requires -genome-dir") {
		t.Errorf("-resume without -genome-dir: exit %d, want 1 naming the flag\nstderr:\n%s", code, stderr)
	}
}

// TestCLINothingUsableExitsOne: a genome run in which every chromosome
// fails has no usable output, so it exits 1 — not 2, which says usable
// output sits beside the failures — and its failure report says so.
func TestCLINothingUsableExitsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "gsnp-gen", "-out", dir, "-genome", "-scale", "2", "-seed", "7")
	reportPath := filepath.Join(t.TempDir(), "report.json")
	code, _, stderr := runCode(t, "gsnp", "-genome-dir", dir, "-engine", "gsnp-cpu",
		"-faults", "corrupt-every=10", "-failure-report", reportPath)
	if code != 1 {
		t.Fatalf("all chromosomes failed: exit %d, want 1\nstderr:\n%s", code, stderr)
	}
	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var fr checkpoint.FailureReport
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatalf("failure report does not parse: %v", err)
	}
	if fr.ExitCode != 1 || len(fr.Tasks) != 24 {
		t.Fatalf("report: exit_code=%d tasks=%d, want 1 and 24", fr.ExitCode, len(fr.Tasks))
	}
	for _, task := range fr.Tasks {
		if task.Status != checkpoint.StatusFailed {
			t.Errorf("%s: status %q, want failed", task.Name, task.Status)
		}
	}
	if outs, _ := filepath.Glob(filepath.Join(dir, "*.result")); len(outs) != 0 {
		t.Errorf("failed chromosomes left outputs behind: %v", outs)
	}
}

// TestCLIFaultedRunIndependentOfWorkers: every fault schedule is keyed to
// its chromosome, panic-window included, so a faulted genome run writes the
// same failure report, results and manifest at -workers 1 and 4 — every
// chromosome that reaches the window panics there once, whichever ran
// first, and the shorter ones finish clean and are checkpointed.
func TestCLIFaultedRunIndependentOfWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	var dirs [2]string
	for i, workers := range []string{"1", "4"} {
		dirs[i] = t.TempDir()
		run(t, "gsnp-gen", "-out", dirs[i], "-genome", "-scale", "4", "-seed", "7")
		code, _, stderr := runCode(t, "gsnp", "-genome-dir", dirs[i], "-engine", "gsnp-cpu",
			"-workers", workers, "-quarantine", "-window", "256", "-faults", "panic-window=1",
			"-failure-report", filepath.Join(dirs[i], "report.json"))
		if code != 2 {
			t.Fatalf("-workers %s: exit %d, want 2\nstderr:\n%s", workers, code, stderr)
		}
	}
	data, err := os.ReadFile(filepath.Join(dirs[0], "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	var fr checkpoint.FailureReport
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatalf("failure report does not parse: %v", err)
	}
	for _, task := range fr.Tasks {
		q, want := task.Quarantined, 0
		if task.Sites > 256 { // the chromosome has a window 1
			want = 1
		}
		if len(q) != want || (want == 1 && (q[0].Window != 1 || !q[0].Panicked)) {
			t.Errorf("%s (%d sites): quarantined %+v, want window 1 panicked exactly when it has one",
				task.Name, task.Sites, q)
		}
	}
	names, err := filepath.Glob(filepath.Join(dirs[0], "*.result"))
	if err != nil || len(names) != 24 {
		t.Fatalf("have %d results, want 24 (%v)", len(names), err)
	}
	for _, name := range append(names, filepath.Join(dirs[0], "report.json"), checkpoint.Path(dirs[0])) {
		want, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dirs[1], filepath.Base(name)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s differs between -workers 1 and -workers 4", filepath.Base(name))
		}
	}
}

// TestCLIUnsortedInputRefused: an alignment file whose first line (the
// read with the lowest position) is moved to the end is refused — exit 1,
// naming the read — on both sparse engines instead of being silently
// mis-windowed: the windows that read belongs to are computed before it
// arrives. With -quarantine the window it arrives in is quarantined (exit
// 2).
func TestCLIUnsortedInputRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dir := t.TempDir()
	run(t, "gsnp-gen", "-out", dir, "-sites", "4000", "-depth", "8", "-seed", "7")
	aln := filepath.Join(dir, "chrSim.soap")
	data, err := os.ReadFile(aln)
	if err != nil {
		t.Fatal(err)
	}
	first, rest, _ := bytes.Cut(data, []byte("\n"))
	if err := os.WriteFile(aln, append(append(rest, first...), '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, engine := range []string{"gsnp-cpu", "gsnp-gpu"} {
		args := []string{
			"-ref", filepath.Join(dir, "chrSim.fa"), "-aln", aln,
			"-engine", engine, "-window", "1000",
			"-out", filepath.Join(dir, engine+".txt"),
		}
		code, _, stderr := runCode(t, "gsnp", args...)
		if code != 1 || !strings.Contains(stderr, "not sorted by position") {
			t.Errorf("%s: unsorted input exit = %d, want 1 with the read named\nstderr:\n%s", engine, code, stderr)
		}
		code, _, stderr = runCode(t, "gsnp", append(args, "-quarantine")...)
		if code != 2 || !strings.Contains(stderr, "window 3 [3000,4000)") {
			t.Errorf("%s: quarantined unsorted run exit = %d, want 2 with the last window quarantined\nstderr:\n%s", engine, code, stderr)
		}
	}
}

// TestCLIFaultToleranceGenome is the acceptance scenario of the
// fault-tolerance work: a whole-genome run with injected parse corruption,
// transient I/O errors and one worker panic completes with only the
// affected windows quarantined, exits 2 with a machine-readable failure
// report, and a -resume rerun on clean inputs converges to bytes identical
// to an uninjected serial run.
func TestCLIFaultToleranceGenome(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	baseDir, faultDir := t.TempDir(), t.TempDir()
	for _, d := range []string{baseDir, faultDir} {
		run(t, "gsnp-gen", "-out", d, "-genome", "-scale", "20", "-seed", "77")
	}
	// Clean serial baseline: the byte-identity reference.
	run(t, "gsnp", "-genome-dir", baseDir, "-engine", "gsnp-cpu", "-window", "256", "-workers", "1")

	// Aim the per-stream fault schedules at the largest chromosome only:
	// corruption and transient errors fire at record maxLines, which only
	// that chromosome's stream reaches, and the panic at the first window
	// past the second-longest reference, which only the longest has.
	// Smaller chromosomes stay clean and must checkpoint.
	soaps, err := filepath.Glob(filepath.Join(faultDir, "*.soap"))
	if err != nil || len(soaps) != 24 {
		t.Fatalf("have %d .soap files, want 24 (%v)", len(soaps), err)
	}
	maxLines, minLines := 0, 1<<62
	var lens []int
	for _, s := range soaps {
		n := countLines(t, s)
		if n > maxLines {
			maxLines = n
		}
		if n < minLines {
			minLines = n
		}
		lens = append(lens, refLen(t, strings.TrimSuffix(s, ".soap")+".fa"))
	}
	if maxLines <= minLines {
		t.Fatalf("degenerate genome: every chromosome has %d records", maxLines)
	}
	sort.Ints(lens)
	panicWindow := (lens[22] + 255) / 256 // window size 256
	if panicWindow*256 >= lens[23] {
		t.Fatalf("degenerate genome: the two longest references (%d, %d sites) have the same windows", lens[22], lens[23])
	}

	// Two transient failures burn two attempts (retries=3 leaves headroom);
	// the surviving attempt hits the corrupt record, which quarantine
	// contains, and its panicking window, which quarantine contains too.
	spec := fmt.Sprintf("corrupt-every=%d,transient-every=%d,transient-fails=2,panic-window=%d",
		maxLines, maxLines, panicWindow)
	reportPath := filepath.Join(t.TempDir(), "report.json")
	code, _, stderr := runCode(t, "gsnp",
		"-genome-dir", faultDir, "-engine", "gsnp-cpu", "-window", "256",
		"-quarantine", "-retries", "3", "-failure-report", reportPath,
		"-faults", spec)
	if code != 2 {
		t.Fatalf("faulted run exit = %d, want 2\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "PARTIAL") {
		t.Errorf("stderr misses the PARTIAL marker:\n%s", stderr)
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var fr checkpoint.FailureReport
	if err := json.Unmarshal(data, &fr); err != nil {
		t.Fatalf("failure report does not parse: %v", err)
	}
	if fr.ExitCode != 2 || len(fr.Tasks) != 24 {
		t.Fatalf("report: exit_code=%d tasks=%d, want 2 and 24", fr.ExitCode, len(fr.Tasks))
	}
	counts := map[string]int{}
	retried := false
	for _, task := range fr.Tasks {
		counts[task.Status]++
		if task.Attempts > 1 {
			retried = true
		}
	}
	if counts[checkpoint.StatusOK] == 0 || counts[checkpoint.StatusPartial] == 0 ||
		counts[checkpoint.StatusFailed] != 0 {
		t.Fatalf("task statuses %v: want ok and partial coexisting, nothing failed", counts)
	}
	if !retried {
		t.Error("no task recorded >1 attempt despite injected transient errors")
	}

	// Clean chromosomes (and only those) are checkpointed.
	m, err := checkpoint.Load(checkpoint.Path(faultDir))
	if err != nil || m == nil {
		t.Fatalf("checkpoint manifest: %v", err)
	}
	if len(m.Done) != counts[checkpoint.StatusOK] {
		t.Errorf("manifest has %d entries, %d tasks finished clean", len(m.Done), counts[checkpoint.StatusOK])
	}

	// Resume with the faults gone: checkpointed chromosomes are skipped,
	// degraded ones recomputed, and the directory converges to the clean
	// serial baseline byte for byte. Quarantine is part of the checkpoint
	// fingerprint (a quarantined run may omit windows), so the resume must
	// carry the same -quarantine flag; only clean chromosomes were
	// checkpointed, and with no faults injected nothing quarantines, so
	// the converged output is still byte-identical to the clean baseline.
	code, _, stderr = runCode(t, "gsnp",
		"-genome-dir", faultDir, "-engine", "gsnp-cpu", "-window", "256", "-resume", "-quarantine")
	if code != 0 {
		t.Fatalf("resume exit = %d, want 0\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "skipped (checkpoint") {
		t.Errorf("resume did not skip checkpointed chromosomes:\n%s", stderr)
	}
	compareResults(t, baseDir, faultDir)
}

// TestCLIResumeAfterKill kills a genome run mid-flight (three chromosomes
// wedged on an injected stall, the rest completing and checkpointing) and
// requires a -resume rerun to finish with output byte-identical to a clean
// serial run.
func TestCLIResumeAfterKill(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	baseDir, workDir := t.TempDir(), t.TempDir()
	for _, d := range []string{baseDir, workDir} {
		run(t, "gsnp-gen", "-out", d, "-genome", "-scale", "20", "-seed", "88")
	}
	run(t, "gsnp", "-genome-dir", baseDir, "-engine", "gsnp-cpu", "-window", "256", "-workers", "1")

	// Window index 15 exists only on chromosomes longer than 15*256 sites —
	// the three largest at this scale. They wedge; everything else
	// completes and checkpoints.
	bin, err := buildTools()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bin, "gsnp"),
		"-genome-dir", workDir, "-engine", "gsnp-cpu", "-window", "256",
		"-workers", "4", "-faults", "stall-window=15,stall=300s")
	var se bytes.Buffer
	cmd.Stderr = &se
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		m, _ := checkpoint.Load(checkpoint.Path(workDir))
		if m != nil && len(m.Done) >= 8 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("no checkpoint progress before the deadline\nstderr:\n%s", se.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	cmd.Process.Kill()
	cmd.Wait()

	code, _, stderr := runCode(t, "gsnp",
		"-genome-dir", workDir, "-engine", "gsnp-cpu", "-window", "256", "-resume")
	if code != 0 {
		t.Fatalf("resume exit = %d, want 0\nstderr:\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "skipped (checkpoint") {
		t.Errorf("resume did not skip checkpointed chromosomes:\n%s", stderr)
	}
	compareResults(t, baseDir, workDir)
}

// TestCLIDenseGenomeMemory pins what a genome-dir run of the dense engine
// keeps resident: its one worker builds one dense kernel and keeps it for
// every chromosome, so a three-chromosome run peaks near one dense window
// (4,000 sites x 128 KiB = 500 MiB) — not one per chromosome, which is what
// a kernel built per chromosome costs before the collector catches up. The
// bound is 1.5 windows.
func TestCLIDenseGenomeMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	if runtime.GOOS != "linux" {
		t.Skip("peak RSS is read from Linux's rusage")
	}
	dir := t.TempDir()
	for _, chr := range []string{"chr20", "chr21", "chr22"} {
		run(t, "gsnp-gen", "-out", dir, "-chr", chr, "-scale", "60", "-seed", "3")
	}
	bin, err := buildTools()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bin, "gsnp"), "-genome-dir", dir, "-engine", "soapsnp", "-workers", "1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("gsnp: %v\n%s", err, out)
	}
	// Maxrss is in KiB on Linux. It is read by name because only the Unix
	// rusage has the field, and this file builds everywhere.
	const window = 4000 * 128 << 10
	const limit = 3 * window / 2
	peak := reflect.ValueOf(cmd.ProcessState.SysUsage()).Elem().FieldByName("Maxrss").Int() << 10
	if peak >= limit {
		t.Errorf("dense genome-dir run peaked at %d MiB, want < %d MiB", peak>>20, limit>>20)
	}
	t.Logf("dense genome-dir run over 3 chromosomes: peak RSS %d MiB", peak>>20)
}

// TestCLIDenseWindowFaultsOnce pins the page faults of a cold dense run: the
// engine writes each page of base_occ its chromosome uses before the
// likelihood's sweep reads it, so the page is mapped by one fault. Read
// first, it took two: one mapping the shared zero page, one copy-on-write at
// window 1's recycle. The bound is 1.25 faults a page of the chromosome's
// share of the window, which leaves a quarter of a fault a page for
// everything else the process maps.
func TestCLIDenseWindowFaultsOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	if runtime.GOOS != "linux" {
		t.Skip("page faults are read from Linux's rusage")
	}
	dir := t.TempDir()
	gen, _ := run(t, "gsnp-gen", "-out", dir, "-chr", "chr21", "-scale", "60", "-seed", "3")
	var sites int
	if i := strings.Index(gen, "sites="); i < 0 {
		t.Fatalf("gsnp-gen printed no site count: %q", gen)
	} else if _, err := fmt.Sscanf(gen[i:], "sites=%d", &sites); err != nil {
		t.Fatal(err)
	}
	bin, err := buildTools()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(filepath.Join(bin, "gsnp"), "-ref", filepath.Join(dir, "chr21.fa"),
		"-aln", filepath.Join(dir, "chr21.soap"), "-engine", "soapsnp", "-out", filepath.Join(dir, "chr21.result"))
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("gsnp: %v\n%s", err, out)
	}
	// Read by name like Maxrss above: only the Unix rusage has Minflt.
	faults := reflect.ValueOf(cmd.ProcessState.SysUsage()).Elem().FieldByName("Minflt").Int()
	pages := float64(sites) * (128 << 10) / 4096
	if perPage := float64(faults) / pages; perPage >= 1.25 {
		t.Errorf("a cold dense run over %d sites took %d minor faults, %.2f a base_occ page, want < 1.25", sites, faults, perPage)
	} else {
		t.Logf("cold dense run over %d sites: %d minor faults, %.2f a base_occ page", sites, faults, perPage)
	}
}

// TestCLIExperimentsList checks the experiment runner's surface.
func TestCLIExperimentsList(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	out, _ := run(t, "gsnp-experiments", "-list")
	for _, id := range []string{"table1", "fig12", "ext-consistency"} {
		if !strings.Contains(out, id) {
			t.Errorf("experiment list missing %s", id)
		}
	}
}

// TestCLIManifestDigestsMatchFiles: a genome run hashes each result while
// writing it and records that digest in the manifest instead of reading
// the file back. Every entry must still be checkpoint.FileDigest of its
// file — rows and the packed container, at -workers 1 and 4 — or -resume
// would recompute every chromosome.
func TestCLIManifestDigestsMatchFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	for _, workers := range []string{"1", "4"} {
		for _, engine := range [][]string{{"-engine", "gsnp-cpu"}, {"-engine", "gsnp-gpu", "-compress"}} {
			dir := t.TempDir()
			run(t, "gsnp-gen", "-out", dir, "-genome", "-scale", "4", "-seed", "11")
			run(t, "gsnp", append([]string{"-genome-dir", dir, "-workers", workers}, engine...)...)
			m, err := checkpoint.Load(checkpoint.Path(dir))
			if err != nil || m == nil || len(m.Done) != 24 {
				t.Fatalf("%v -workers %s: manifest %v (%v), want 24 entries", engine, workers, m, err)
			}
			for name, e := range m.Done {
				got, err := checkpoint.FileDigest(filepath.Join(dir, e.Output))
				if err != nil || got != e.SHA256 {
					t.Errorf("%v -workers %s: %s: manifest digest %s, file digest %s (%v)",
						engine, workers, name, e.SHA256, got, err)
				}
			}
		}
	}
}
