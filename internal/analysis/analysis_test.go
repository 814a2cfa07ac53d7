package analysis

import (
	"strings"
	"testing"
)

// TestRegressions runs the whole suite over the shapes of the bugs the
// analyzers found in this tree when they landed — three CLIs that dropped
// their output file's Close error, the service's map-ordered input
// spooling, and the same spooling writing to the disk past the
// durable-write seam — so each stays found on every go test.
func TestRegressions(t *testing.T) {
	checkFixture(t, All(), "./regress/...")
}

// maxIgnores is the number of reasoned //gsnplint:ignore directives in
// production code: checkpoint 1, service 3, sched/pool 2, cmd/gsnpd 1.
const maxIgnores = 7

// TestRealTreePins is the regression pin the sweeps earned: the whole
// production tree passes every analyzer with no suppression beyond the
// reasoned ones it has today. A new finding anywhere in the repo, or a new
// directive hiding one, fails this test before it fails CI — also under
// -short, where the gsnplint binary's smoke test is skipped.
func TestRealTreePins(t *testing.T) {
	pkgs, err := Load("../..", "./...")
	if err != nil {
		t.Fatalf("loading production tree: %v", err)
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.PkgPath] = true
	}
	for _, want := range []string{"gsnp/internal/journal", "gsnp/internal/service", "gsnp/internal/gsnp", "gsnp/internal/pipeline"} {
		if !seen[want] {
			t.Fatalf("pin lost its subject: %s not in the load", want)
		}
	}
	for _, d := range RunAll(pkgs, All()) {
		t.Errorf("%s: [%s] %s", pkgs[0].Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	ignores := 0
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, ignorePrefix) {
						ignores++
					}
				}
			}
		}
	}
	if ignores > maxIgnores {
		t.Errorf("%d //gsnplint:ignore directives in production code, want at most %d: fix the finding instead of suppressing it", ignores, maxIgnores)
	}
}
