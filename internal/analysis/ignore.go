package analysis

import (
	"go/token"
	"strconv"
	"strings"
)

// ignorePrefix is the one sanctioned suppression mechanism:
//
//	//gsnplint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The directive suppresses the named analyzers (or "all") on its own
// source line and on the line directly below it, so it works both as a
// trailing comment and as a standalone comment above the flagged
// statement. The reason is mandatory: a suppression without a recorded
// justification is itself a finding.
const ignorePrefix = "//gsnplint:ignore"

// directiveSet indexes suppressions by file:line and carries diagnostics
// for malformed directives.
type directiveSet struct {
	// byLine maps file:line to the set of suppressed analyzer names.
	byLine   map[string]map[string]bool
	problems []Diagnostic
}

// directives collects every //gsnplint:ignore directive in pkg.
func directives(pkg *Package) *directiveSet {
	known := map[string]bool{"all": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	ds := &directiveSet{byLine: map[string]map[string]bool{}}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					ds.problems = append(ds.problems, Diagnostic{
						Pos:      c.Pos(),
						Analyzer: "gsnplint",
						Message:  "malformed directive: want //gsnplint:ignore <analyzer> <reason>",
					})
					continue
				}
				names := strings.Split(fields[0], ",")
				bad := false
				for _, n := range names {
					if !known[n] {
						ds.problems = append(ds.problems, Diagnostic{
							Pos:      c.Pos(),
							Analyzer: "gsnplint",
							Message:  "directive names unknown analyzer \"" + n + "\"",
						})
						bad = true
					}
				}
				if bad {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, line := range []int{pos.Line, pos.Line + 1} {
					k := pos.Filename + ":" + strconv.Itoa(line)
					if ds.byLine[k] == nil {
						ds.byLine[k] = map[string]bool{}
					}
					for _, n := range names {
						ds.byLine[k][n] = true
					}
				}
			}
		}
	}
	return ds
}

// filter drops diagnostics covered by a directive.
func (ds *directiveSet) filter(fset *token.FileSet, diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		set := ds.byLine[pos.Filename+":"+strconv.Itoa(pos.Line)]
		if set != nil && (set["all"] || set[d.Analyzer]) {
			continue
		}
		out = append(out, d)
	}
	return out
}
