// Package analysis is a self-contained static-analysis framework plus the
// seven GSNP project analyzers (determinism, arenalifetime, closecheck,
// saturation, goroutinejoin, lockhold, durability) that mechanically
// enforce the invariants DESIGN.md §9 and §13 document in prose. Every
// analyzer reads one set of per-function summaries (interproc.go), built
// by the only walk over function bodies.
//
// The API deliberately mirrors golang.org/x/tools/go/analysis (Analyzer,
// Pass, Diagnostic) so the analyzers could be ported to a stock
// multichecker verbatim. We cannot depend on x/tools here: the build
// environment is offline-first and the module is not in the local module
// cache, and the repo's hard rule is that gates must work without
// fetching anything. Everything below is standard library only — package
// loading rides `go list -export` and the gc export-data importer, which
// is the same machinery `go vet` itself uses.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Funcs are the summaries of this package's functions: declarations
	// and the function literals that do not run in place.
	Funcs []*FuncInfo

	// IP is the load-wide interprocedural fact base (call graph +
	// function summaries), computed once per load and shared by every
	// analyzer of every package in it.
	IP *Interproc

	diags []Diagnostic
}

// Analyzer is one named invariant checker.
type Analyzer struct {
	Name string
	// Doc is the one-paragraph rule statement shown by `gsnplint -help`.
	Doc string
	Run func(*Pass)
}

// Diagnostic is one finding, attributed to the analyzer that raised it.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// RunAll applies each analyzer to every package of one load and returns
// the surviving diagnostics: findings suppressed by a well-formed
// //gsnplint:ignore directive are dropped, and malformed directives
// become diagnostics themselves. The interprocedural fact base is built
// once, over the whole load, before any analyzer runs — cross-package
// call edges (service -> journal -> checkpoint) resolve only when the
// callee's package is part of the same load. Results are sorted by file
// position.
func RunAll(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	ip := buildInterproc(pkgs)
	var out []Diagnostic
	var fset *token.FileSet
	for _, pkg := range pkgs {
		fset = pkg.Fset
		dirs := directives(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				Funcs:     ip.funcs[pkg],
				IP:        ip,
			}
			a.Run(pass)
			out = append(out, dirs.filter(pkg.Fset, pass.diags)...)
		}
		out = append(out, dirs.problems...)
	}
	if fset != nil {
		sort.Slice(out, func(i, j int) bool {
			pi, pj := fset.Position(out[i].Pos), fset.Position(out[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return out[i].Analyzer < out[j].Analyzer
		})
	}
	return out
}

// Run is RunAll for a single package: the interprocedural layer sees
// only pkg, so cross-package edges resolve as unknown externals. The
// fixture harness and single-package pins use it.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunAll([]*Package{pkg}, analyzers)
}

// All returns the gsnplint analyzer suite in stable order: the four
// per-function invariants, then the three that follow static call edges.
func All() []*Analyzer {
	return []*Analyzer{
		Determinism, ArenaLifetime, CloseCheck, Saturation,
		GoroutineJoin, LockHold, Durability,
	}
}

// ByName resolves a comma-separated analyzer selection.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var sel []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		sel = append(sel, a)
	}
	return sel, nil
}
