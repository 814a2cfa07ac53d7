package analysis

import (
	"go/ast"
	"go/types"
)

// ArenaLifetime enforces the PR 2 recycling contract: every slice owned
// by a gsnp.Arena (including the per-window buffers behind it) is valid
// only until the window that borrowed it is recycled. A reference that
// outlives the window — stored into a long-lived struct, returned from
// an exported function, sent on a channel, or captured by an unscoped
// goroutine — would be silently overwritten by the next window.
//
// Scoped fan-out is allowed: a goroutine may borrow arena memory when
// the spawning function provably joins it (a WaitGroup.Wait after the go
// statement). The engines' own passes do not spawn: they hand par.Do a
// closure that captures arena storage, and the join proof for those rests
// on par.Do returning only after every shard has (internal/par's tests).
// Methods on the Arena itself are exempt — handing out grow-only
// buffers is its API.
//
// The simulated GPU's lane cursor is held to the same rules as a pointer:
// the *gpu.Thread a kernel is handed lives inside the recycled block
// scratch — the one context stepped through every lane of a barrier-free
// block, or a per-lane context readied for one block — and so do the lanes
// a phased kernel readies (Block.Lanes' []gpu.Thread, Block.Lane's
// *gpu.Thread), and so does the *gpu.Block a phased or wide kernel is
// handed, so a kernel that parks any of them anywhere that outlives its own
// invocation — a field, a channel, a variable of the function around the
// kernel — reads another lane's, block's or launch's state through it. A
// view a metered-run or block-wide primitive hands out (gpu.LdRun,
// Thread.SharedF64Run, gpu.LdWide: device storage or the block's shared
// memory) is lane state in the same sense, under the same rules.
var ArenaLifetime = &Analyzer{
	Name: "arenalifetime",
	Doc: "flag arena-owned slices and the GPU lane cursor escaping their " +
		"lifetime: field stores, exported returns, channel sends, " +
		"unscoped goroutine capture, stores to variables outside the kernel",
	Run: runArenaLifetime,
}

// isArenaType matches the arena storage types. Arena is matched by name
// in any package (there is exactly one in the tree); the unexported
// per-window struct is matched only inside package gsnp, where it lives.
// The simulated GPU keeps its own recycled arenas — the per-block launch
// scratch (thread contexts, shared-memory arrays, coalescing samples) —
// whose storage is likewise valid only until the device recycles it, so
// the same escape rules apply inside package gpu.
func isArenaType(t types.Type) bool {
	return isNamed(t, "", "Arena") || isNamed(t, "gsnp", "window") ||
		isNamed(t, "gpu", "blockScratch") || isNamed(t, "gpu", "blockRT") ||
		isNamed(t, "gpu", "Thread") || isNamed(t, "gpu", "Block")
}

// arenaRooted reports whether e reads through an Arena/window value or a
// variable in derived.
func arenaRooted(info *types.Info, e ast.Expr, derived map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		// A variable holding the arena itself also roots the chain, so
		// writes back into the arena (w.buf = w.buf[:0]) are recognized
		// as staying inside it.
		return derived[objOf(info, e)] || isArenaType(info.TypeOf(e))
	case *ast.SelectorExpr:
		return isArenaType(info.TypeOf(e.X)) || arenaRooted(info, e.X, derived)
	case *ast.SliceExpr:
		return arenaRooted(info, e.X, derived)
	case *ast.IndexExpr:
		return arenaRooted(info, e.X, derived)
	case *ast.StarExpr:
		return arenaRooted(info, e.X, derived)
	case *ast.CallExpr:
		if calleeName(e) == "append" && len(e.Args) > 0 {
			return arenaRooted(info, e.Args[0], derived)
		}
	}
	return false
}

// arenaDerivedSlice reports whether e is a slice borrowed from the arena.
func arenaDerivedSlice(info *types.Info, e ast.Expr, derived map[types.Object]bool) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Slice)
	return ok && arenaRooted(info, e, derived)
}

// laneState names e when it is lane state of the simulator: a *gpu.Thread
// — the cursor inside a block scratch (&sc.cur), a lane context a block
// readied (Block.Lane), or the parameter through which a kernel received
// either — a *gpu.Block, the block-wide context, or a []gpu.Thread, the
// lanes a block readied (Block.Lanes). It returns "" for anything else.
func laneState(info *types.Info, e ast.Expr) string {
	switch t := types.Unalias(info.TypeOf(e)).(type) {
	case *types.Pointer:
		if isNamed(t.Elem(), "gpu", "Thread") {
			return "lane cursor"
		}
		if isNamed(t.Elem(), "gpu", "Block") {
			return "block context"
		}
	case *types.Slice:
		if isNamed(t.Elem(), "gpu", "Thread") {
			return "lane contexts"
		}
	}
	return ""
}

// runView reports whether e is a view a metered-run primitive returned — a
// call of a package gpu function or method that takes the lane cursor or
// the block-wide context and returns a slice — or a variable or re-slice of
// one (views).
func runView(info *types.Info, e ast.Expr, views map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return views[objOf(info, e)]
	case *ast.SliceExpr:
		return runView(info, e.X, views)
	case *ast.CallExpr:
		fn := staticCallee(info, e)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Name() != "gpu" {
			return false
		}
		sig := fn.Type().(*types.Signature)
		if sig.Results().Len() != 1 {
			return false
		}
		if _, ok := sig.Results().At(0).Type().Underlying().(*types.Slice); !ok {
			return false
		}
		cursor := func(v *types.Var) bool {
			p, ok := v.Type().(*types.Pointer)
			return ok && (isNamed(p.Elem(), "gpu", "Thread") || isNamed(p.Elem(), "gpu", "Block"))
		}
		return sig.Recv() != nil && cursor(sig.Recv()) || sig.Params().Len() > 0 && cursor(sig.Params().At(0))
	}
	return false
}

// borrowed names what e lends out of recycled memory — an arena-owned
// slice, the lane cursor, a block's lane contexts or a metered-run view —
// or returns "" when it is none of them. Lane state is named before views:
// Block.Lanes returns a slice from a method of the block-wide context, the
// shape of a view, but what it lends is the block's lane contexts.
func borrowed(info *types.Info, e ast.Expr, derived, views map[types.Object]bool) string {
	if arenaDerivedSlice(info, e, derived) {
		return "arena-owned slice"
	}
	if what := laneState(info, e); what != "" {
		return what
	}
	if runView(info, e, views) {
		return "metered-run view"
	}
	return ""
}

// outlivesFunc reports whether the variable id names is declared outside
// fn: a package-level variable, or one a function literal captured from
// the function around it.
func outlivesFunc(info *types.Info, fn *FuncInfo, id *ast.Ident) bool {
	v, ok := objOf(info, id).(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return true
	}
	lit, ok := fn.Decl.(*ast.FuncLit)
	return ok && (v.Pos() < lit.Pos() || v.Pos() >= lit.End())
}

func runArenaLifetime(pass *Pass) {
	info := pass.TypesInfo
	// s := w.rows; t := s[:n] marks both s and t as arena-derived.
	derived := flowVars(pass, func(e ast.Expr, derived map[types.Object]bool) bool {
		return arenaDerivedSlice(info, e, derived)
	})
	// v := gpu.LdRun(...); u := v[1:] marks both v and u as run views.
	views := flowVars(pass, func(e ast.Expr, views map[types.Object]bool) bool {
		return runView(info, e, views)
	})
	for _, fn := range pass.Funcs {
		// Methods on the arena itself hand out its buffers: that is its API.
		exported := fn.Fn != nil && fn.Fn.Exported() && !isArenaType(recvType(fn.Fn))
		for _, s := range fn.Stmts {
			switch n := s.(type) {
			case *ast.ReturnStmt:
				if !exported {
					continue
				}
				for _, res := range n.Results {
					if what := borrowed(info, res, derived, views); what != "" {
						pass.Reportf(res.Pos(),
							"%s returned from exported %s: the caller's view is overwritten when the next window recycles the arena", what, fn.Fn.Name())
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if len(n.Lhs) <= i {
						continue
					}
					what := borrowed(info, rhs, derived, views)
					if what == "" {
						continue
					}
					switch lhs := ast.Unparen(n.Lhs[i]).(type) {
					case *ast.SelectorExpr:
						if !arenaRooted(info, lhs.X, derived) {
							pass.Reportf(n.Pos(),
								"%s stored in field %s: the struct outlives the window that owns the memory", what, lhs.Sel.Name)
						}
					case *ast.Ident:
						if what != "arena-owned slice" && outlivesFunc(info, fn, lhs) {
							pass.Reportf(n.Pos(),
								"%s stored in %s, which outlives the kernel invocation: lane state is reused for the next lane or block and recycled by the next launch", what, lhs.Name)
						}
					}
				}
			case *ast.SendStmt:
				if what := borrowed(info, n.Value, derived, views); what != "" {
					pass.Reportf(n.Pos(),
						"%s sent on a channel escapes the window lifetime", what)
				}
			}
		}
		for _, g := range fn.GoStmts {
			checkArenaGo(pass, fn, g, derived)
		}
	}
}

// checkArenaGo flags goroutines that borrow arena memory without a join.
func checkArenaGo(pass *Pass, fn *FuncInfo, g *ast.GoStmt, derived map[types.Object]bool) {
	info := pass.TypesInfo
	borrows := false
	ast.Inspect(g.Call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v := objOf(info, id)
		if v == nil {
			return true
		}
		if derived[v] || (v.Pos() < g.Pos() && isArenaType(v.Type())) {
			borrows = true
		}
		return !borrows
	})
	// Scoped fan-out: a Wait after the go statement joins the workers
	// before the window can be recycled.
	if borrows && !fn.waitsAfter(g.Pos()) {
		name := "a function literal"
		if fn.Fn != nil {
			name = fn.Fn.Name()
		}
		pass.Reportf(g.Pos(),
			"goroutine borrows arena memory with no .Wait() join in %s: the next window recycles the buffers while the goroutine runs", name)
	}
}
