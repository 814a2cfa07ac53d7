package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestGsnplintCleanOnRepo is the CLI smoke test the Makefile gate relies
// on: a built gsnplint binary run over the whole module exits 0. Any
// new finding (or a reintroduced old one, like the bare defer f.Close()
// sites this PR fixed) turns this test — and make ci — red.
func TestGsnplintCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module twice; skipped in -short mode")
	}
	bin := buildLint(t)

	cmd := exec.Command(bin, "./...")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("gsnplint ./... failed: %v\n%s", err, out)
	}
}

func buildLint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "gsnplint")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building gsnplint: %v\n%s", err, out)
	}
	return bin
}

// TestGsnplintJSONReport pins the machine-readable gate artifact: -json
// writes a report naming all seven analyzers, the package count, and an
// explicit (not null) findings array even when the tree is clean.
func TestGsnplintJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module; skipped in -short mode")
	}
	bin := buildLint(t)
	reportPath := filepath.Join(t.TempDir(), "findings.json")

	cmd := exec.Command(bin, "-json", reportPath, "./...")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("gsnplint -json failed: %v\n%s", err, out)
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	var report struct {
		Analyzers []string `json:"analyzers"`
		Packages  int      `json:"packages"`
		Findings  []any    `json:"findings"`
	}
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	want := []string{"determinism", "arenalifetime", "closecheck", "saturation", "goroutinejoin", "lockhold", "durability"}
	if strings.Join(report.Analyzers, ",") != strings.Join(want, ",") {
		t.Errorf("report analyzers = %v, want %v", report.Analyzers, want)
	}
	if report.Packages == 0 {
		t.Error("report claims zero packages were analyzed")
	}
	if report.Findings == nil {
		t.Error("findings is null; the gate's consumer needs an explicit empty array")
	}
	if len(report.Findings) != 0 {
		t.Errorf("clean tree produced findings: %v", report.Findings)
	}
}

// TestRacePkgsCoverSpawningPackages audits the Makefile: every package
// that contains a go statement or forks through internal/par (per gsnplint
// -go-pkgs, the same loader the analyzers use) must be listed in RACE_PKGS
// so the race detector actually exercises it. The packages whose passes
// moved their spawning into internal/par must still be reported: they run
// as much code on goroutines as before.
func TestRacePkgsCoverSpawningPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the module; skipped in -short mode")
	}
	bin := buildLint(t)
	cmd := exec.Command(bin, "-go-pkgs", "./...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("gsnplint -go-pkgs failed: %v", err)
	}

	mk, err := os.ReadFile("../../Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^RACE_PKGS\s*=\s*(.+)$`).FindSubmatch(mk)
	if m == nil {
		t.Fatal("RACE_PKGS assignment not found in Makefile")
	}
	race := map[string]bool{}
	for _, f := range strings.Fields(string(m[1])) {
		race[strings.TrimPrefix(f, "./")] = true
	}

	mod, err := os.ReadFile("../../go.mod")
	if err != nil {
		t.Fatal(err)
	}
	mm := regexp.MustCompile(`(?m)^module\s+(\S+)`).FindSubmatch(mod)
	if mm == nil {
		t.Fatal("module line not found in go.mod")
	}
	module := string(mm[1])

	for _, rel := range []string{"gsnp", "soapsnp", "sortnet", "align", "snpio", "gpu", "par"} {
		if imp := module + "/internal/" + rel; !strings.Contains(string(out)+"\n", imp+"\n") {
			t.Errorf("gsnplint -go-pkgs no longer reports %s, which runs its passes on goroutines", imp)
		}
	}
	for _, imp := range strings.Fields(string(out)) {
		rel := strings.TrimPrefix(imp, module+"/")
		if !race[rel] {
			t.Errorf("package %s spawns goroutines but is missing from RACE_PKGS (add ./%s)", imp, rel)
		}
	}
}

// TestGsnplintRejectsUnknownAnalyzer pins the -run flag's validation.
func TestGsnplintRejectsUnknownAnalyzer(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command(bin, "-run", "nosuch", "./...")
	cmd.Dir = "../.."
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected failure for -run nosuch, got success:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Fatalf("expected exit code 2 for a usage error, got %v\n%s", err, out)
	}
}
