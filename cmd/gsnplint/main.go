// Command gsnplint is the GSNP project multichecker: it runs the seven
// invariant analyzers (determinism, arenalifetime, closecheck,
// saturation, goroutinejoin, lockhold, durability) over the packages
// matched by its arguments and exits non-zero on any finding. It is part
// of `make lint` and therefore of `make ci`: a PR that reintroduces an
// unordered output path, an arena escape, a silent Close, a raw pileup
// increment, an unjoined goroutine, a lock held across blocking I/O, or
// a non-atomic durable write fails the gate.
//
// Usage:
//
//	gsnplint [-run determinism,closecheck] [-dir path] [-tests] [-json file] [packages]
//
// Packages default to ./... . All analyzers of one invocation share a
// single package load and one interprocedural fact base, so cross-
// package call edges (service -> journal -> checkpoint) resolve exactly
// once. -tests adds _test.go files to the load; -json also writes the
// findings as a machine-readable report (the CI gate archives it as
// gsnplint-findings.json); -go-pkgs prints the import path of every
// loaded package containing a go statement or forking through internal/par
// and exits, which is how the Makefile's RACE_PKGS list is audited.
//
// Findings can be suppressed, one line at a time and with a mandatory
// written justification, by
//
//	//gsnplint:ignore <analyzer> <reason>
//
// on the flagged line or the line above it. See DESIGN.md §9 and §13
// for the invariants behind each analyzer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"gsnp/internal/analysis"
)

func main() {
	os.Exit(run())
}

// jsonFinding is one diagnostic of the machine-readable report.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json output: written even when empty, so the CI
// artifact always states which analyzers ran over how many packages.
type jsonReport struct {
	Analyzers []string      `json:"analyzers"`
	Packages  int           `json:"packages"`
	Findings  []jsonFinding `json:"findings"`
}

func run() int {
	var (
		runList  = flag.String("run", "", "comma-separated analyzers to run (default: all)")
		dir      = flag.String("dir", ".", "directory to resolve package patterns from")
		docs     = flag.Bool("doc", false, "print each analyzer's rule and exit")
		tests    = flag.Bool("tests", false, "include _test.go files in the load")
		jsonPath = flag.String("json", "", "also write findings as a JSON report to this file (- for stdout)")
		goPkgs   = flag.Bool("go-pkgs", false, "print packages that spawn goroutines, directly or through internal/par, and exit (RACE_PKGS audit)")
	)
	flag.Parse()

	analyzers := analysis.All()
	if *docs {
		for _, a := range analyzers {
			fmt.Printf("%s\n\t%s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *runList != "" {
		sel, err := analysis.ByName(strings.Split(*runList, ","))
		if err != nil {
			fmt.Fprintln(os.Stderr, "gsnplint:", err)
			return 2
		}
		analyzers = sel
	}

	pkgs, err := analysis.LoadTests(*dir, *tests, flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsnplint:", err)
		return 2
	}
	if *goPkgs {
		for _, p := range spawningPackages(pkgs) {
			fmt.Println(p)
		}
		return 0
	}

	diags := analysis.RunAll(pkgs, analyzers)

	report := jsonReport{Packages: len(pkgs), Findings: []jsonFinding{}}
	for _, a := range analyzers {
		report.Analyzers = append(report.Analyzers, a.Name)
	}
	for _, d := range diags {
		pos := pkgs[0].Fset.Position(d.Pos)
		fmt.Printf("%s: %s: %s\n", pos, d.Analyzer, d.Message)
		report.Findings = append(report.Findings, jsonFinding{
			File: relPath(pos.Filename), Line: pos.Line, Col: pos.Column,
			Analyzer: d.Analyzer, Message: d.Message,
		})
	}
	if *jsonPath != "" {
		if err := writeReport(*jsonPath, report); err != nil {
			fmt.Fprintln(os.Stderr, "gsnplint:", err)
			return 2
		}
	}
	if len(report.Findings) > 0 {
		fmt.Fprintf(os.Stderr, "gsnplint: %d finding(s)\n", len(report.Findings))
		return 1
	}
	return 0
}

// spawningPackages returns the sorted import paths of packages that run
// code on goroutines — the set RACE_PKGS must cover: those with at least
// one go statement, and those importing internal/par, whose data-parallel
// passes fork there without a go statement of their own.
func spawningPackages(pkgs []*analysis.Package) []string {
	var out []string
	for _, pkg := range pkgs {
		spawns := false
		for _, imp := range pkg.Types.Imports() {
			spawns = spawns || strings.HasSuffix(imp.Path(), "/internal/par")
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					spawns = true
				}
				return !spawns
			})
		}
		if spawns {
			out = append(out, pkg.PkgPath)
		}
	}
	sort.Strings(out)
	return out
}

// relPath renders a finding path relative to the working directory when
// possible, so the JSON artifact is stable across checkouts.
func relPath(p string) string {
	wd, err := os.Getwd()
	if err != nil {
		return p
	}
	if rel, err := filepath.Rel(wd, p); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return p
}

func writeReport(path string, report jsonReport) error {
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
