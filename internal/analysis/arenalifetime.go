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
// the spawning function provably joins it (a .Wait() call after the go
// statement). The engines' own passes do not spawn: they hand par.Do a
// closure that captures arena storage, and the join proof for those rests
// on par.Do returning only after every shard has (internal/par's tests).
// Methods on the Arena itself are exempt — handing out grow-only
// buffers is its API.
//
// The simulated GPU's lane cursor is held to the same rules as a pointer:
// the *gpu.Thread a kernel is handed lives inside the recycled block
// scratch — the one context stepped through every lane of a barrier-free
// block, or a per-lane context reset for the next block — so a kernel
// that parks it anywhere that outlives its own invocation — a field, a
// channel, a variable of the function around the kernel — reads another
// lane's, block's or launch's state through it.
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
		isNamed(t, "gpu", "Thread")
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
	return isSlice(info.TypeOf(e)) && arenaRooted(info, e, derived)
}

// isLaneCursor reports whether e is a *gpu.Thread: the cursor inside a
// block scratch (&sc.cur), a lane context of a kernel with barriers
// (&sc.lanes[l]), or the parameter through which a kernel received either.
func isLaneCursor(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	p, ok := types.Unalias(t).(*types.Pointer)
	return ok && isNamed(p.Elem(), "gpu", "Thread")
}

// borrowed names what e lends out of recycled memory — an arena-owned
// slice or the lane cursor — or returns "" when it is neither.
func borrowed(info *types.Info, e ast.Expr, derived map[types.Object]bool) string {
	switch {
	case isLaneCursor(info, e):
		return "lane cursor"
	case arenaDerivedSlice(info, e, derived):
		return "arena-owned slice"
	}
	return ""
}

// outlivesFunc reports whether the variable id names is declared outside
// the innermost function on the stack: a package-level variable, or one a
// function literal captured from the function around it.
func outlivesFunc(info *types.Info, id *ast.Ident, stack []ast.Node) bool {
	v, ok := objOf(info, id).(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		return true
	}
	lit, ok := enclosingFunc(stack).(*ast.FuncLit)
	return ok && (v.Pos() < lit.Pos() || v.Pos() >= lit.End())
}

func runArenaLifetime(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkArenaFunc(pass, fd)
		}
	}
}

// receiverIsArena reports whether fd is a method on Arena/window.
func receiverIsArena(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return false
	}
	return isArenaType(info.TypeOf(fd.Recv.List[0].Type))
}

func checkArenaFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo

	// Two passes over the assignments give simple transitive tracking:
	// s := w.rows; t := s[:n] marks both s and t as arena-derived.
	derived := map[types.Object]bool{}
	for range 2 {
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range as.Rhs {
				if len(as.Lhs) <= i || !arenaDerivedSlice(info, rhs, derived) {
					continue
				}
				if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
					if v := objOf(info, id); v != nil {
						derived[v] = true
					}
				}
			}
			return true
		})
	}

	exported := fd.Name.IsExported() && !receiverIsArena(info, fd)
	inspectStack(fd.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if !exported {
				return true
			}
			for _, res := range n.Results {
				if what := borrowed(info, res, derived); what != "" {
					pass.Reportf(res.Pos(),
						"%s returned from exported %s: the caller's view is overwritten when the next window recycles the arena", what, fd.Name.Name)
				}
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if len(n.Lhs) <= i {
					continue
				}
				what := borrowed(info, rhs, derived)
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
					if what == "lane cursor" && outlivesFunc(info, lhs, stack) {
						pass.Reportf(n.Pos(),
							"lane cursor stored in %s, which outlives the kernel invocation: the Thread is reused for the next lane or block and recycled by the next launch", lhs.Name)
					}
				}
			}
		case *ast.SendStmt:
			if what := borrowed(info, n.Value, derived); what != "" {
				pass.Reportf(n.Pos(),
					"%s sent on a channel escapes the window lifetime", what)
			}
		case *ast.GoStmt:
			checkArenaGo(pass, fd, n, derived)
		}
		return true
	})
}

// checkArenaGo flags goroutines that borrow arena memory without a join.
func checkArenaGo(pass *Pass, fd *ast.FuncDecl, g *ast.GoStmt, derived map[types.Object]bool) {
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
	if !borrows {
		return
	}
	// Scoped fan-out: a .Wait() after the go statement joins the workers
	// before the window can be recycled.
	joined := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if ok && call.Pos() > g.Pos() && calleeName(call) == "Wait" {
			joined = true
		}
		return !joined
	})
	if !joined {
		pass.Reportf(g.Pos(),
			"goroutine borrows arena memory with no .Wait() join in %s: the next window recycles the buffers while the goroutine runs", fd.Name.Name)
	}
}
