package analysis

// analysistest-style fixture harness. Fixtures live under testdata/src,
// which is its own tiny Go module so `go list` can load and type-check
// them exactly like production packages (testdata directories are
// invisible to the parent module's ./... patterns). Expected findings
// are `// want "regex"` comments on the line the diagnostic lands on;
// several wants may share a line. The harness fails on any unmatched
// diagnostic and any unmatched want, so fixtures prove both that an
// analyzer fires on seeded violations and that it stays silent on the
// idiomatic code interleaved with them.

import (
	"fmt"
	"go/token"
	"regexp"
	"strings"
	"testing"
)

var wantRE = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)`)

// fixtureWants extracts line -> expected-message regexps for a package.
func fixtureWants(t *testing.T, pkg *Package) map[string][]*regexp.Regexp {
	t.Helper()
	wants := map[string][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				k := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
				for _, q := range regexp.MustCompile(`"(?:[^"\\]|\\.)*"`).FindAllString(m[1], -1) {
					expr := strings.ReplaceAll(q[1:len(q)-1], `\"`, `"`)
					re, err := regexp.Compile(expr)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", k, expr, err)
					}
					wants[k] = append(wants[k], re)
				}
			}
		}
	}
	return wants
}

// runFixture loads testdata/src/<path> and checks a's diagnostics (plus
// any directive problems) against the fixture's want comments.
func runFixture(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	checkFixture(t, []*Analyzer{a}, "./"+path)
}

// checkFixture loads the packages matching pattern under testdata/src as
// one load and checks the analyzers' diagnostics against their wants.
func checkFixture(t *testing.T, analyzers []*Analyzer, pattern string) {
	t.Helper()
	pkgs, err := Load("testdata/src", pattern)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", pattern, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s: no packages", pattern)
	}
	wants := map[string][]*regexp.Regexp{}
	for _, pkg := range pkgs {
		for k, res := range fixtureWants(t, pkg) {
			wants[k] = append(wants[k], res...)
		}
	}

	matched := map[string]map[int]bool{} // line key -> want index -> hit
	for _, d := range RunAll(pkgs, analyzers) {
		pos := pkgs[0].Fset.Position(d.Pos)
		k := shortKey(pos)
		ok := false
		for i, re := range wants[k] {
			if re.MatchString(d.Message) {
				if matched[k] == nil {
					matched[k] = map[int]bool{}
				}
				matched[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("%s: unexpected diagnostic [%s] %s", k, d.Analyzer, d.Message)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("%s: expected diagnostic matching %q, got none", k, re)
			}
		}
	}
}

func shortKey(pos token.Position) string {
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}

// runFixtureClean asserts a raises nothing on testdata/src/<path>.
func runFixtureClean(t *testing.T, a *Analyzer, path string) {
	t.Helper()
	pkgs, err := Load("testdata/src", "./"+path)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", path, err)
	}
	for _, pkg := range pkgs {
		for _, d := range Run(pkg, []*Analyzer{a}) {
			t.Errorf("%s: unexpected diagnostic [%s] %s", pkg.Fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
}
