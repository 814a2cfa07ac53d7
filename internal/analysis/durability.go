package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Durability enforces the crash-consistency contract of DESIGN.md §11:
// every byte that lands under a journal, spool, checkpoint or other
// durable directory must be written atomically — through
// checkpoint.AtomicWrite (temp file + fsync + rename) or an explicitly
// fsync'd handle (the WAL's fsync'd append). A plain os.WriteFile or
// os.Create on a durable path can be torn or lost entirely by a crash:
// the journal would then replay a job whose inputs are gone, or trust a
// chromosome output its chrom record names whose bytes never hit the
// platter — exactly the corruption the WAL's torn-tail repair exists to
// rule out.
//
// A write is sanctioned when the function performing it calls Sync() on
// an *os.File — it implements its own durability (fsync-before-rename,
// or fsync'd append) — so checkpoint.AtomicWrite and journal.append
// pass by construction, not by name. The interprocedural case is the
// dangerous one: a helper that takes a directory and os.WriteFiles into
// it looks innocent in isolation; the finding lands on the call site
// that hands it a durable path.
var Durability = &Analyzer{
	Name: "durability",
	Doc: "flag non-atomic writes (os.WriteFile/os.Create/writable " +
		"OpenFile without fsync) landing under journal/spool/checkpoint " +
		"paths, including writes reached through helper functions",
	Run: runDurability,
}

// durableNameRE matches identifiers, fields, types and methods that name
// durable storage. Deliberately substring-based ("SpoolDir", "walPath",
// "journalDir" all match); "wal" alone is matched only as an exact or
// affix token to keep "walk" out.
var durableNameRE = regexp.MustCompile(`(?i)journal|spool|checkpoint|workdir|durable`)

func durableName(name string) bool {
	if durableNameRE.MatchString(name) {
		return true
	}
	l := strings.ToLower(name)
	return l == "wal" || strings.HasPrefix(l, "wal_") || strings.HasSuffix(l, "wal") ||
		strings.HasPrefix(l, "waldir") || strings.HasPrefix(l, "walpath") || strings.HasPrefix(l, "walfile")
}

func runDurability(pass *Pass) {
	ip := pass.IP
	if ip == nil {
		return
	}
	for _, info := range ip.infos {
		if info.Pkg.Types != pass.Pkg {
			continue
		}
		checkDurability(pass, info)
	}
}

func checkDurability(pass *Pass, info *FuncInfo) {
	inf := info.Pkg.TypesInfo
	durableLocals := durableLocalVars(info)

	// Direct writes: a write call in a function that never fsyncs, with
	// a durable-rooted path.
	if !info.SyncsFile {
		for _, w := range info.Writes {
			if isDurablePath(inf, w.PathArg, durableLocals) {
				pass.Reportf(w.Pos,
					"%s writes under a durable path without fsync: a crash can tear or drop the bytes the journal will later trust — use checkpoint.AtomicWrite or sync the handle before rename", w.Callee)
			}
		}
	}

	// Indirect writes: a durable path handed to a helper whose summary
	// says it writes under that parameter without syncing.
	for _, c := range info.Calls {
		callee := pass.IP.ByFunc[funcKey(c.Callee)]
		if callee == nil || callee == info {
			continue
		}
		params := pass.IP.DurableWriteParams(callee)
		for pi := range params {
			if pi >= len(c.Call.Args) {
				continue
			}
			if isDurablePath(inf, c.Call.Args[pi], durableLocals) {
				pass.Reportf(c.Pos,
					"durable path passed to %s, which writes under it without fsync (non-atomic write reached through a helper): route it through checkpoint.AtomicWrite or an fsync'd handle", c.Callee.Name())
				break
			}
		}
	}
}

// durableLocalVars propagates durable roots through local assignments
// (dir := j.SpoolDir(id); sub := filepath.Join(dir, "x") marks both),
// two passes for simple transitive chains.
func durableLocalVars(info *FuncInfo) map[string]bool {
	body := funcBody(info.Decl)
	if body == nil {
		return nil
	}
	inf := info.Pkg.TypesInfo
	durable := map[string]bool{}
	for range 2 {
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if len(as.Lhs) <= i || !isDurablePath(inf, rhs, durable) {
					continue
				}
				if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
					if o := objOf(inf, id); o != nil {
						durable[renderKey(inf, id)] = true
					}
				}
			}
			return true
		})
	}
	return durable
}

// isDurablePath reports whether the path expression e is rooted in
// durable storage: a name matching durableName anywhere along its
// derivation — identifier, struct field, owning type (Journal), called
// method (SpoolDir, WorkDir) — or a filepath.Join over a durable part.
func isDurablePath(inf *types.Info, e ast.Expr, durableLocals map[string]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return durableName(e.Name) || durableLocals[renderKey(inf, e)]
	case *ast.SelectorExpr:
		if durableName(e.Sel.Name) {
			return true
		}
		// A field on a durable-named type roots the chain: j.path on
		// *journal.Journal is the WAL file even though "path" says
		// nothing.
		if n := namedOf(inf.TypeOf(e.X)); n != nil && n.Obj() != nil && durableName(n.Obj().Name()) {
			return true
		}
		return isDurablePath(inf, e.X, durableLocals)
	case *ast.CallExpr:
		name := calleeName(e)
		if durableName(name) {
			return true
		}
		full := calleeFullName(inf, e)
		if full == "path/filepath.Join" || full == "path.Join" {
			for _, a := range e.Args {
				if isDurablePath(inf, a, durableLocals) {
					return true
				}
			}
		}
		// A method on a durable receiver yields durable paths: j.path
		// derivations, journal.SpoolDir covered above by name already.
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if n := namedOf(inf.TypeOf(sel.X)); n != nil && n.Obj() != nil && durableName(n.Obj().Name()) {
				return true
			}
		}
		return false
	case *ast.BinaryExpr:
		return isDurablePath(inf, e.X, durableLocals) || isDurablePath(inf, e.Y, durableLocals)
	case *ast.IndexExpr:
		return isDurablePath(inf, e.X, durableLocals)
	}
	return false
}
