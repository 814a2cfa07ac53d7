package gsnp_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
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
	// that chromosome's stream reaches. Smaller chromosomes stay clean and
	// must checkpoint.
	soaps, err := filepath.Glob(filepath.Join(faultDir, "*.soap"))
	if err != nil || len(soaps) != 24 {
		t.Fatalf("have %d .soap files, want 24 (%v)", len(soaps), err)
	}
	maxLines, minLines := 0, 1<<62
	for _, s := range soaps {
		n := countLines(t, s)
		if n > maxLines {
			maxLines = n
		}
		if n < minLines {
			minLines = n
		}
	}
	if maxLines <= minLines {
		t.Fatalf("degenerate genome: every chromosome has %d records", maxLines)
	}

	// Two transient failures burn two attempts (retries=3 leaves headroom);
	// the surviving attempt hits the corrupt record, which quarantine
	// contains. panic-window=1 panics the first window-1 computation of the
	// whole run; quarantine contains that too.
	spec := fmt.Sprintf("corrupt-every=%d,transient-every=%d,transient-fails=2,panic-window=1",
		maxLines, maxLines)
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
