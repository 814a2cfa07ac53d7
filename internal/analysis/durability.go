package analysis

import "strings"

// Durability enforces the crash-consistency contract of DESIGN.md §11:
// every change to the disk goes through the durable-write seam,
// checkpoint.FS, whose one implementation (checkpoint.OS) makes each
// operation durable — an atomic write is temp file + fsync + rename +
// directory fsync, an append is write + fsync with a failed one truncated
// back out, a new directory's parent is fsync'd. A plain os.WriteFile,
// os.Rename or os.MkdirAll elsewhere can be torn or lost by a crash: the
// journal would then replay a job whose inputs are gone, or trust a
// chromosome output whose bytes never hit the platter. It also bypasses
// the seam the crash-point walk substitutes, so the walk would not see it.
//
// The rule needs no guess about which paths are durable: outside the
// package that implements the seam (import path ending in
// internal/checkpoint), a non-main package makes no mutating os call. Main
// packages write their own user-named outputs and are exempt.
var Durability = &Analyzer{
	Name: "durability",
	Doc: "flag mutating os calls (Create, writable OpenFile, WriteFile, " +
		"Rename, Remove*, Mkdir*, CreateTemp, MkdirTemp, Truncate) in " +
		"non-main packages outside the durable-write seam (internal/checkpoint)",
	Run: runDurability,
}

// seamPkg is the import-path suffix of the package implementing the seam.
const seamPkg = "internal/checkpoint"

func runDurability(pass *Pass) {
	if pass.Pkg.Name() == "main" || strings.HasSuffix(pass.Pkg.Path(), seamPkg) {
		return
	}
	for _, info := range pass.Funcs {
		for _, call := range info.DiskWrites {
			pass.Reportf(call.Pos(),
				"%s changes the disk outside the durable-write seam: a crash can tear or lose it — go through checkpoint.FS",
				calleeFullName(pass.TypesInfo, call))
		}
	}
}
