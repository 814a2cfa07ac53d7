package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// outputPkgSuffixes names the packages on the byte-identity path: every
// byte they emit must be independent of map iteration order, scheduling,
// wall-clock time and random state. Matching is by path suffix so test
// fixtures under a different module root are gated identically.
var outputPkgSuffixes = []string{
	"internal/pipeline",
	"internal/gsnp",
	"internal/soapsnp",
	"internal/compress",
	// The aligner feeds the callers directly in fastq mode: its read
	// placements and sort order are the byte-identity contract's input.
	"internal/align",
	"internal/genomejob",
	"internal/service",
	// The job journal's records replay into job execution after a crash:
	// map-ordered or clock-dependent WAL content would make recovery
	// diverge from the interrupted run.
	"internal/journal",
}

// Determinism enforces the paper's bit-identity contract (the
// new_p_matrix precomputation exists precisely so GPU output matches the
// CPU byte-for-byte): in output-producing packages it flags map
// iteration whose body produces ordered output (appends to an outer
// slice, sends on a channel, writes/encodes, or accumulates floats), and
// any data-bearing use of math/rand or time.Now.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flag unordered map ranges that feed outputs, and math/rand or " +
		"time.Now values that flow into data, in output-producing packages",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) {
	if !isOutputPackage(pass.Pkg.Path()) {
		return
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"%s imported in an output-producing package: random state breaks byte-identical reruns", path)
			}
		}
	}
	for _, info := range pass.Funcs {
		for _, s := range info.Stmts {
			if rs, ok := s.(*ast.RangeStmt); ok {
				checkMapRange(pass, info, rs)
			}
		}
		for _, u := range info.Clock {
			if call, ok := u.X.(*ast.CallExpr); ok && calleeFullName(pass.TypesInfo, call) == "time.Now" {
				checkTimeNow(pass, call, u.Parent)
			}
		}
	}
}

func isOutputPackage(path string) bool {
	for _, s := range outputPkgSuffixes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// checkMapRange flags effects inside a `range` over a map whose result
// depends on iteration order.
func checkMapRange(pass *Pass, info *FuncInfo, rs *ast.RangeStmt) {
	t := pass.TypesInfo.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "send on a channel inside range over map: receiver observes map iteration order")
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, info, rs, n)
		case *ast.CallExpr:
			if name := calleeName(n); isWriteVerb(name) {
				pass.Reportf(n.Pos(), "%s inside range over map emits output in map iteration order", name)
				return false
			}
		}
		return true
	})
}

func checkMapRangeAssign(pass *Pass, fn *FuncInfo, rs *ast.RangeStmt, as *ast.AssignStmt) {
	info := pass.TypesInfo
	// v = append(v, ...) growing a slice that outlives the loop: the
	// slice records iteration order. Exempt the canonical collect-and-sort
	// pattern, where the slice is sorted after the loop.
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || calleeName(call) != "append" || len(as.Lhs) <= i {
			continue
		}
		switch lhs := ast.Unparen(as.Lhs[i]).(type) {
		case *ast.Ident:
			v := objOf(info, lhs)
			if v == nil || declaredWithin(v, rs) || sortedAfter(info, fn, rs.End(), v) {
				continue
			}
			pass.Reportf(as.Pos(),
				"append to %q inside range over map records iteration order; collect and sort, or iterate sorted keys", lhs.Name)
		case *ast.SelectorExpr:
			pass.Reportf(as.Pos(),
				"append to field %q inside range over map records iteration order", lhs.Sel.Name)
		}
	}
	// Float accumulation is order-sensitive: FP addition does not
	// associate, so a map-ordered sum differs between runs.
	if as.Tok == token.ADD_ASSIGN || as.Tok == token.SUB_ASSIGN || as.Tok == token.MUL_ASSIGN {
		for _, lhs := range as.Lhs {
			t := info.TypeOf(lhs)
			if t == nil {
				continue
			}
			if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v := objOf(info, id); v != nil && declaredWithin(v, rs) {
						continue
					}
				}
				pass.Reportf(as.Pos(),
					"floating-point accumulation inside range over map is order-sensitive (FP addition does not associate)")
			}
		}
	}
}

func isWriteVerb(name string) bool {
	for _, p := range []string{"Write", "Fprint", "Print", "Encode"} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

func declaredWithin(v types.Object, n ast.Node) bool {
	return v.Pos() >= n.Pos() && v.Pos() <= n.End()
}

// sortedAfter reports whether v is passed to a sorting call after pos in
// the function — the collect-then-sort idiom that restores a
// deterministic order.
func sortedAfter(info *types.Info, fn *FuncInfo, pos token.Pos, v types.Object) bool {
	for _, call := range fn.Sorts {
		if call.Pos() >= pos && usesVar(info, call, v) {
			return true
		}
	}
	return false
}

// checkTimeNow flags time.Now results that flow into data rather than
// timing. Durations (Since/Sub), comparisons and deadline plumbing are
// timing; anything that stores, returns, formats or encodes the
// timestamp puts wall-clock bytes into output.
func checkTimeNow(pass *Pass, call *ast.CallExpr, parent ast.Node) {
	switch parent := parent.(type) {
	case *ast.CallExpr:
		if name := calleeFullName(pass.TypesInfo, parent); timingCallee(name, calleeName(parent)) {
			return
		}
		pass.Reportf(call.Pos(), "time.Now result passed to %s: wall-clock data in an output-producing package", calleeName(parent))
	case *ast.SelectorExpr:
		if timingMethod(parent.Sel.Name) {
			return
		}
		pass.Reportf(call.Pos(), "time.Now().%s feeds data, not timing", parent.Sel.Name)
	case *ast.AssignStmt:
		// t := time.Now() — every use of t must stay in the timing domain.
		for i, rhs := range parent.Rhs {
			if ast.Unparen(rhs) != call || len(parent.Lhs) <= i {
				continue
			}
			id, ok := ast.Unparen(parent.Lhs[i]).(*ast.Ident)
			if !ok {
				pass.Reportf(call.Pos(), "time.Now stored outside a local variable")
				continue
			}
			v := objOf(pass.TypesInfo, id)
			if v == nil {
				continue
			}
			checkTimeVarUses(pass, v)
		}
	case *ast.BinaryExpr, *ast.ExprStmt:
		// comparisons and bare calls are timing-only
	default:
		pass.Reportf(call.Pos(), "time.Now used in a data position (composite literal, return, or field)")
	}
}

func timingCallee(fullName, bare string) bool {
	switch fullName {
	case "time.Since", "time.Until", "context.WithDeadline", "context.WithTimeout":
		return true
	}
	// Method calls taking the timestamp as an argument (end.Sub(start))
	// stay in the timing domain, as does any deadline setter.
	return timingMethod(bare) || strings.Contains(bare, "Deadline")
}

func timingMethod(name string) bool {
	switch name {
	case "Sub", "Before", "After", "Equal", "Compare", "Add", "Round", "Truncate":
		return true
	}
	return false
}

// checkTimeVarUses validates every use of a variable bound to time.Now.
// A local is visible only in its own function and the literals inside it,
// so the package's wall-clock values hold every use.
func checkTimeVarUses(pass *Pass, v types.Object) {
	info := pass.TypesInfo
	for _, fn := range pass.Funcs {
		for _, u := range fn.Clock {
			id, ok := u.X.(*ast.Ident)
			if !ok || objOf(info, id) != v {
				continue
			}
			switch parent := u.Parent.(type) {
			case *ast.AssignStmt, *ast.ValueSpec, *ast.BinaryExpr:
				// the defining assignment, re-binding, or a comparison
			case *ast.SelectorExpr:
				if parent.Sel != id && !timingMethod(parent.Sel.Name) {
					pass.Reportf(id.Pos(), "wall-clock value %q used via .%s outside the timing domain", v.Name(), parent.Sel.Name)
				}
			case *ast.CallExpr:
				if !timingCallee(calleeFullName(info, parent), calleeName(parent)) {
					pass.Reportf(id.Pos(), "wall-clock value %q passed to %s: timestamps in data break byte-identical reruns", v.Name(), calleeName(parent))
				}
			default:
				pass.Reportf(id.Pos(), "wall-clock value %q used in a data position", v.Name())
			}
		}
	}
}
