package analysis

// The fact base: one summary per function, computed once when a load's
// packages enter RunAll. summarize is the only walk over a function body;
// every analyzer reads what it recorded — the package's own summaries
// through Pass.Funcs, the load-wide call graph through Pass.IP.
//
// A summary holds two kinds of facts. Syntactic ones — the body's
// statements, its file opens and their flag class, its mutating os calls,
// its wall-clock values, its sorting calls — serve the per-function rules
// (determinism, arenalifetime, closecheck, saturation, durability).
// Behavioural ones — spawns which goroutines, blocks on a
// channel/select/Wait, acquires/releases which mutex — serve the
// concurrency analyzers, and the transitive queries (FirstBlock,
// transitiveKeys) memoize a DFS over static call edges so asking "does
// this call eventually block?" is cheap for every analyzer.
//
// Resolution is static only: direct calls to package-level functions and
// methods with a concrete receiver, across every package in the same
// load. Calls through interface values or function-typed variables fall
// back to "unknown external", classified by a curated table of standard
// library functions that block or touch the disk/network. That keeps the
// layer sound enough for gating (no panic on dynamic dispatch) while
// catching the shapes this repo actually uses — worker pools, the
// daemon's serve and signal goroutines — where the call targets are static. (The durable-write seam
// is an interface, so the WAL's fsync'd appends are unknown externals.)

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// BlockOp is one potentially blocking operation inside a function body:
// a channel send/receive, a select without default, a WaitGroup.Wait, a
// known-blocking external call (file or network I/O, time.Sleep), or a
// static call to a load-local function that transitively blocks.
type BlockOp struct {
	Pos  token.Pos
	Desc string // human-readable, e.g. "send on channel" or "call to flush, which does file I/O (...)"
}

// LockEvent is one mutex acquisition or release, identified by Key.
type LockEvent struct {
	Pos      token.Pos
	Key      string // mutex identity, see renderKey
	Unlock   bool
	Deferred bool // defer mu.Unlock(): held to the end of the function
}

// KeyPos is one keyed operation at a position (a WaitGroup.Wait).
type KeyPos struct {
	Key string
	Pos token.Pos
}

// Use is an expression together with the node directly above it.
type Use struct {
	X      ast.Expr
	Parent ast.Node
}

// Open is one os.Create, os.OpenFile or os.WriteFile call.
type Open struct {
	Call *ast.CallExpr
	Var  types.Object // the variable the returned file is assigned to, or nil
	Mode openMode
}

// openMode classes an open by what it can do to the bytes on disk.
type openMode int

const (
	openRead   openMode = iota // os.OpenFile(..., os.O_RDONLY, ...)
	openWrite                  // writes into an existing file (O_APPEND, O_RDWR, ...)
	openCreate                 // creates or truncates: os.Create, os.WriteFile, O_CREATE, O_TRUNC, unreadable flags
)

// CallSite is one static call edge to a function in the same load.
type CallSite struct {
	Pos    token.Pos
	Callee *types.Func
	Call   *ast.CallExpr
}

// FuncInfo is the summary of one function: a declaration, or a function
// literal that does not run where it is written — one spawned by a go
// statement, stored, or passed on. A literal that runs in place (called
// immediately, or deferred) is part of the enclosing function's body.
type FuncInfo struct {
	Fn   *types.Func // nil for function literals
	Decl ast.Node    // *ast.FuncDecl or *ast.FuncLit
	Pkg  *Package

	// Stmts are the body's statements in source order, those of literals
	// with a summary of their own excepted.
	Stmts []ast.Stmt

	// Clock lists the body's expressions of type time.Time — time.Now()
	// calls, variables holding a timestamp — each with its parent.
	Clock []Use

	// Sorts are the calls that sort: sort.*, slices.*, or any function
	// with Sort in its name.
	Sorts []*ast.CallExpr

	// Opens are the file-opening calls, with their flag class.
	Opens []Open

	// DiskWrites are the os calls that change the disk: creating or
	// writable opens, writes, renames, removals, directory creation,
	// truncation.
	DiskWrites []*ast.CallExpr

	// GoStmts are the go statements spawned directly by this function
	// (not by goroutines it spawns).
	GoStmts []*ast.GoStmt

	// Blocks are the direct potentially-blocking operations, excluding
	// anything inside a spawned goroutine body or a defer statement.
	Blocks []BlockOp

	// Calls are the static load-local call edges (defers included).
	Calls []CallSite

	// Locks are the mutex acquire/release events in source order.
	Locks []LockEvent

	// DoneKeys identify the WaitGroups this function calls Done on; Waits
	// are its WaitGroup.Wait calls by key, deferred ones included.
	DoneKeys []string
	Waits    []KeyPos

	// SendKeys / RecvKeys identify channels this function directly sends
	// on or closes / receives from or ranges over.
	SendKeys, RecvKeys []string

	// CtxDoneSelect is true when the body receives from a Done() channel
	// (a ctx-done select case or a bare <-ctx.Done()), i.e. the function
	// is cancellation-aware.
	CtxDoneSelect bool
}

// Interproc is the shared interprocedural fact base for one load.
type Interproc struct {
	// ByFunc maps every declared function/method in the load to its
	// summary, keyed by funcKey (Origin().FullName()): the same function
	// seen through another package's import (an export-data object) and
	// through its own Defs must land on one summary.
	ByFunc map[string]*FuncInfo
	// ByGo maps each go statement to the summary of its spawned body
	// (the function literal, or the called function's summary).
	ByGo map[*ast.GoStmt]*FuncInfo
	// funcs lists each package's summaries: declarations and literals.
	funcs map[*Package][]*FuncInfo

	// allWaitKeys / allRecvKeys aggregate the load: which WaitGroups
	// have a Wait somewhere, which channels are received from somewhere.
	allWaitKeys map[string]bool
	allRecvKeys map[string]bool

	// memo tables for the transitive queries.
	blocksMemo map[*FuncInfo]*BlockOp
	keysMemo   map[*FuncInfo]*transKeys
}

type transKeys struct {
	done, send map[string]bool
	ctxDone    bool
}

// buildInterproc computes summaries for every function in pkgs.
func buildInterproc(pkgs []*Package) *Interproc {
	ip := &Interproc{
		ByFunc:      map[string]*FuncInfo{},
		ByGo:        map[*ast.GoStmt]*FuncInfo{},
		funcs:       map[*Package][]*FuncInfo{},
		allWaitKeys: map[string]bool{},
		allRecvKeys: map[string]bool{},
		blocksMemo:  map[*FuncInfo]*BlockOp{},
		keysMemo:    map[*FuncInfo]*transKeys{},
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.TypesInfo.Defs[fd.Name].(*types.Func)
				info := ip.summarize(pkg, fd, fd.Body, fn)
				if fn != nil {
					ip.ByFunc[funcKey(fn)] = info
				}
			}
		}
		for _, info := range ip.funcs[pkg] {
			for _, w := range info.Waits {
				ip.allWaitKeys[w.Key] = true
			}
			for _, k := range info.RecvKeys {
				ip.allRecvKeys[k] = true
			}
		}
	}
	return ip
}

// summarize collects the facts of one function body in one walk. A
// literal that runs elsewhere gets a summary of its own: a go-spawned one
// is also entered under ByGo, a stored or passed one is reachable by no
// call edge, so its facts are invisible to the transitive queries (a
// known approximation) but every per-function rule still checks it.
func (ip *Interproc) summarize(pkg *Package, decl ast.Node, body *ast.BlockStmt, fn *types.Func) *FuncInfo {
	info := &FuncInfo{Fn: fn, Decl: decl, Pkg: pkg}
	ip.funcs[pkg] = append(ip.funcs[pkg], info)
	inf := pkg.TypesInfo

	// walk visits root, whose parent is the given node. inDefer marks code
	// that runs at return: its blocking ops stay out of Blocks.
	var walk func(root, parent ast.Node, inDefer bool)
	walk = func(root, parent ast.Node, inDefer bool) {
		stack := []ast.Node{parent}
		ast.Inspect(root, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			parent := stack[len(stack)-1]
			if s, ok := n.(ast.Stmt); ok {
				info.Stmts = append(info.Stmts, s)
			}
			if e, ok := n.(ast.Expr); ok && isNamed(inf.TypeOf(e), "time", "Time") {
				info.Clock = append(info.Clock, Use{e, parent})
			}
			switch n := n.(type) {
			case *ast.GoStmt:
				info.GoStmts = append(info.GoStmts, n)
				// The spawned body belongs to the goroutine, not the
				// spawner: a literal gets its own summary under ByGo, and
				// `go f(x)` resolves through ByFunc — neither becomes a
				// call edge, because spawning never blocks the spawner.
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					ip.ByGo[n] = ip.summarize(pkg, lit, lit.Body, nil)
				}
				// Argument expressions still evaluate in the spawner.
				for _, a := range n.Call.Args {
					walk(a, n.Call, inDefer)
				}
				return false
			case *ast.DeferStmt:
				// Deferred work runs at return: its lock releases and call
				// edges count, but its blocking ops are excluded from the
				// spawner's in-body sequence (inDefer). Only the directly
				// deferred call is a Deferred unlock — `defer mu.Unlock()`
				// holds the mutex to the end of the function, while a
				// Lock/Unlock pair inside a deferred closure body is a
				// normal bounded pair that merely runs at return.
				if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
					for _, a := range n.Call.Args {
						walk(a, n.Call, inDefer)
					}
					walk(lit.Body, lit, true)
				} else {
					ip.callFacts(info, n.Call, n, true)
					for _, a := range n.Call.Args {
						walk(a, n.Call, true)
					}
				}
				return false
			case *ast.CallExpr:
				if lit, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
					// Immediately-invoked literal: runs right here.
					for _, a := range n.Args {
						walk(a, n, inDefer)
					}
					walk(lit.Body, lit, inDefer)
					return false
				}
				ip.callFacts(info, n, parent, inDefer)
			case *ast.FuncLit:
				// Stored or passed: it runs wherever its value is called.
				ip.summarize(pkg, n, n.Body, nil)
				return false
			case *ast.SendStmt:
				if !inDefer {
					info.Blocks = append(info.Blocks, BlockOp{Pos: n.Pos(), Desc: "send on " + renderKey(inf, n.Chan)})
				}
				info.SendKeys = append(info.SendKeys, renderKey(inf, n.Chan))
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					if !inDefer {
						info.Blocks = append(info.Blocks, BlockOp{Pos: n.Pos(), Desc: "receive from " + renderKey(inf, n.X)})
					}
					info.RecvKeys = append(info.RecvKeys, renderKey(inf, n.X))
					if isDoneCall(n.X) {
						info.CtxDoneSelect = true
					}
				}
			case *ast.RangeStmt:
				if t := inf.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						if !inDefer {
							info.Blocks = append(info.Blocks, BlockOp{Pos: n.Pos(), Desc: "range over " + renderKey(inf, n.X)})
						}
						info.RecvKeys = append(info.RecvKeys, renderKey(inf, n.X))
					}
				}
			case *ast.SelectStmt:
				hasDefault := false
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault && !inDefer {
					info.Blocks = append(info.Blocks, BlockOp{Pos: n.Pos(), Desc: "select without default"})
				}
				// Case channels are recorded by the nested Send/Unary walks.
			}
			stack = append(stack, n)
			return true
		})
	}
	walk(body, decl, false)
	return info
}

// callFacts classifies one call expression: builtin close, mutex ops,
// WaitGroup ops, file opens and other mutating os calls, sorts, known
// external blocking/I-O functions, and load-local static edges. A call
// whose parent is the defer statement itself (`defer mu.Unlock()`)
// extends the held interval to the end of the function.
func (ip *Interproc) callFacts(info *FuncInfo, call *ast.CallExpr, parent ast.Node, inDefer bool) {
	inf := info.Pkg.TypesInfo
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" && len(call.Args) == 1 {
		if o := objOf(inf, id); o == nil || o.Pkg() == nil { // the builtin
			info.SendKeys = append(info.SendKeys, renderKey(inf, call.Args[0]))
			return
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		t := inf.TypeOf(sel.X)
		switch sel.Sel.Name {
		case "Lock", "RLock", "Unlock", "RUnlock":
			if isNamed(t, "sync", "Mutex") || isNamed(t, "sync", "RWMutex") {
				_, direct := parent.(*ast.DeferStmt)
				unlock := strings.HasSuffix(sel.Sel.Name, "Unlock")
				info.Locks = append(info.Locks, LockEvent{Pos: call.Pos(), Key: renderKey(inf, sel.X), Unlock: unlock, Deferred: unlock && direct})
				return
			}
		case "Wait":
			if isNamed(t, "sync", "WaitGroup") {
				key := renderKey(inf, sel.X)
				info.Waits = append(info.Waits, KeyPos{key, call.Pos()})
				if !inDefer {
					info.Blocks = append(info.Blocks, BlockOp{Pos: call.Pos(), Desc: "sync.WaitGroup.Wait on " + key})
				}
				return
			}
			// sync.Cond.Wait releases its mutex while parked, so it is
			// deliberately NOT a blocking op for lockhold.
			if isNamed(t, "sync", "Cond") {
				return
			}
		case "Done":
			if isNamed(t, "sync", "WaitGroup") {
				info.DoneKeys = append(info.DoneKeys, renderKey(inf, sel.X))
				return
			}
		}
	}

	full := calleeFullName(inf, call)
	switch full {
	case "os.Create", "os.WriteFile", "os.OpenFile":
		o := Open{Call: call, Mode: openCreate}
		if full == "os.OpenFile" {
			o.Mode = flagMode(inf, call.Args[1])
		}
		if as, ok := parent.(*ast.AssignStmt); ok && len(as.Rhs) == 1 && as.Rhs[0] == call {
			if id, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident); ok {
				o.Var = objOf(inf, id)
			}
		}
		info.Opens = append(info.Opens, o)
		if o.Mode != openRead {
			info.DiskWrites = append(info.DiskWrites, call)
		}
	case "os.Rename", "os.Remove", "os.RemoveAll", "os.Mkdir", "os.MkdirAll", "os.CreateTemp", "os.MkdirTemp", "os.Truncate":
		info.DiskWrites = append(info.DiskWrites, call)
	}
	if strings.HasPrefix(full, "sort.") || strings.HasPrefix(full, "slices.") || strings.Contains(calleeName(call), "Sort") {
		info.Sorts = append(info.Sorts, call)
	}
	if desc := externalBlocking(full); desc != "" {
		if !inDefer {
			info.Blocks = append(info.Blocks, BlockOp{Pos: call.Pos(), Desc: desc})
		}
		return
	}
	if callee := staticCallee(inf, call); callee != nil {
		info.Calls = append(info.Calls, CallSite{Pos: call.Pos(), Callee: callee, Call: call})
	}
}

// flagMode classes an os.OpenFile flag expression by its strongest flag.
// A flag value the analyzer cannot read (a variable, a call) is
// conservatively treated as creating; a literal number as writing.
func flagMode(inf *types.Info, e ast.Expr) openMode {
	var id *ast.Ident
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		return max(flagMode(inf, e.X), flagMode(inf, e.Y))
	case *ast.BasicLit:
		return openWrite
	case *ast.SelectorExpr:
		id = e.Sel
	case *ast.Ident:
		id = e
	}
	c, ok := objOf(inf, id).(*types.Const)
	switch {
	case !ok || c.Name() == "O_CREATE" || c.Name() == "O_TRUNC":
		return openCreate
	case c.Name() == "O_RDONLY":
		return openRead
	}
	return openWrite
}

// flowVars returns the variables a value reaches through the package's
// assignments: with root(e) true for e, `v := e; w := v[:n]` marks v and
// w. Objects are package-wide identities, so one pass over every summary
// also follows a local into the literals that capture it; two rounds
// catch a chain written out of order.
func flowVars(pass *Pass, root func(e ast.Expr, flowed map[types.Object]bool) bool) map[types.Object]bool {
	flowed := map[types.Object]bool{}
	for range 2 {
		for _, info := range pass.Funcs {
			for _, s := range info.Stmts {
				as, ok := s.(*ast.AssignStmt)
				if !ok {
					continue
				}
				for i, rhs := range as.Rhs {
					if i >= len(as.Lhs) || !root(rhs, flowed) {
						continue
					}
					if id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident); ok {
						if v := objOf(pass.TypesInfo, id); v != nil {
							flowed[v] = true
						}
					}
				}
			}
		}
	}
	return flowed
}

// waitsAfter reports whether the function calls WaitGroup.Wait after pos:
// a spawner that does cannot get past that point before the goroutines
// it spawned at pos are done.
func (info *FuncInfo) waitsAfter(pos token.Pos) bool {
	for _, w := range info.Waits {
		if w.Pos > pos {
			return true
		}
	}
	return false
}

// funcKey is the load-stable identity of a function: the generic origin's
// fully qualified name, so an instantiated method, an imported view and
// the defining declaration all share one key.
func funcKey(fn *types.Func) string {
	return fn.Origin().FullName()
}

// GoroutineInfo returns the summary of the body spawned by g: the
// literal's own summary, or the called function's.
func (ip *Interproc) GoroutineInfo(inf *types.Info, g *ast.GoStmt) *FuncInfo {
	if info, ok := ip.ByGo[g]; ok && info != nil {
		return info
	}
	if callee := staticCallee(inf, g.Call); callee != nil {
		return ip.ByFunc[funcKey(callee)]
	}
	return nil
}

// FirstBlock returns the first potentially-blocking operation reachable
// from info, transitively through static calls, or nil.
func (ip *Interproc) FirstBlock(info *FuncInfo) *BlockOp {
	if info == nil {
		return nil
	}
	if op, ok := ip.blocksMemo[info]; ok {
		return op
	}
	ip.blocksMemo[info] = nil // cycle guard: recursion does not block by itself
	var found *BlockOp
	if len(info.Blocks) > 0 {
		found = &info.Blocks[0]
	} else {
		for _, c := range info.Calls {
			if found = ip.callBlock(c); found != nil {
				break
			}
		}
	}
	ip.blocksMemo[info] = found
	return found
}

// callBlock returns call site c as a blocking operation when its callee
// transitively blocks, described by the chain's first hop, or nil.
func (ip *Interproc) callBlock(c CallSite) *BlockOp {
	op := ip.FirstBlock(ip.ByFunc[funcKey(c.Callee)])
	if op == nil {
		return nil
	}
	return &BlockOp{Pos: c.Pos, Desc: "call to " + c.Callee.Name() + ", which " + shortBlockDesc(op.Desc)}
}

func shortBlockDesc(d string) string {
	switch {
	case strings.HasPrefix(d, "call to "):
		return "blocks transitively"
	case strings.Contains(d, "I/O"):
		return "does " + d
	default:
		return "can block (" + d + ")"
	}
}

// transitiveKeys unions DoneKeys/SendKeys/CtxDoneSelect over everything
// statically reachable from info.
func (ip *Interproc) transitiveKeys(info *FuncInfo) *transKeys {
	if info == nil {
		return &transKeys{done: map[string]bool{}, send: map[string]bool{}}
	}
	if tk, ok := ip.keysMemo[info]; ok {
		return tk
	}
	tk := &transKeys{done: map[string]bool{}, send: map[string]bool{}}
	ip.keysMemo[info] = tk // cycle guard; fixpoint not needed for our queries
	for _, k := range info.DoneKeys {
		tk.done[k] = true
	}
	for _, k := range info.SendKeys {
		tk.send[k] = true
	}
	tk.ctxDone = info.CtxDoneSelect
	for _, c := range info.Calls {
		sub := ip.transitiveKeys(ip.ByFunc[funcKey(c.Callee)])
		for k := range sub.done {
			tk.done[k] = true
		}
		for k := range sub.send {
			tk.send[k] = true
		}
		tk.ctxDone = tk.ctxDone || sub.ctxDone
	}
	return tk
}

// staticCallee resolves call to a declared function or concrete method,
// or nil for dynamic/interface/builtin calls.
func staticCallee(inf *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := objOf(inf, id).(*types.Func)
	return fn
}

// isDoneCall reports whether e is a call to a Done() method — the
// context cancellation channel.
func isDoneCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Done" && len(call.Args) == 0
}

// renderKey produces a stable identity for a channel / WaitGroup / mutex
// expression so uses in different functions can be matched:
//
//   - a field chain rooted in a named type renders as "Type.field"
//     (p.wg on *Pool -> "Pool.wg"), so the worker's p.wg.Done matches
//     Close's p.wg.Wait even though p differs;
//   - a plain variable renders as its declaration position, so a local
//     channel captured by a closure matches receives in the same
//     function and nothing else.
func renderKey(inf *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if o := objOf(inf, e); o != nil {
			if o.Pkg() != nil && o.Parent() == o.Pkg().Scope() {
				return o.Pkg().Path() + "." + o.Name() // package-level var
			}
			return "local@" + strconv.Itoa(int(o.Pos()))
		}
		return e.Name
	case *ast.SelectorExpr:
		if n := namedOf(inf.TypeOf(e.X)); n != nil && n.Obj() != nil {
			owner := n.Obj().Name()
			if n.Obj().Pkg() != nil {
				owner = n.Obj().Pkg().Path() + "." + owner
			}
			return owner + "." + e.Sel.Name
		}
		return renderKey(inf, e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return calleeName(e) + "()"
	case *ast.IndexExpr:
		return renderKey(inf, e.X) + "[i]"
	default:
		return "expr"
	}
}

// externalBlocking classifies a fully qualified external function name:
// a description when the call can block the caller (I/O verbs block and
// touch the disk or network), "" when it is not known to.
func externalBlocking(full string) string {
	switch full {
	case "":
		return ""
	case "time.Sleep":
		return "time.Sleep"
	case "(*sync.WaitGroup).Wait":
		return "sync.WaitGroup.Wait"
	}
	// File and network I/O by package + name. The receiver spelling in
	// FullName is "(*os.File).Write" / "(net.Conn).Read".
	ioTables := []struct{ prefix, names string }{
		{"os.", "Create CreateTemp Open OpenFile ReadFile WriteFile Rename Remove RemoveAll Mkdir MkdirAll MkdirTemp ReadDir Stat Lstat Truncate Chtimes Link Symlink"},
		{"(*os.File).", "Read ReadAt ReadFrom Write WriteAt WriteString WriteTo Sync Close Truncate Seek"},
		{"io.", "Copy CopyN CopyBuffer ReadAll ReadFull WriteString"},
		{"(*bufio.Writer).", "Flush ReadFrom Write WriteString WriteByte WriteRune"},
		{"(*bufio.Reader).", "Read ReadByte ReadBytes ReadLine ReadRune ReadSlice ReadString Peek WriteTo"},
		{"(*bufio.Scanner).", "Scan"},
		{"net.", "Dial DialTimeout Listen ListenPacket"},
		{"net/http.", "Get Head Post PostForm Serve ListenAndServe ListenAndServeTLS"},
		{"(*net/http.Client).", "Do Get Head Post PostForm"},
		{"(net.Conn).", "Read Write Close"},
		{"(net.Listener).", "Accept Close"},
		{"(*os/exec.Cmd).", "Run Output CombinedOutput Start Wait"},
		{"(*compress/gzip.Writer).", "Write Close Flush"},
		{"(*compress/flate.Writer).", "Write Close Flush"},
		{"(*compress/zlib.Writer).", "Write Close Flush"},
		{"(*encoding/json.Encoder).", "Encode"},
		{"(*encoding/json.Decoder).", "Decode"},
	}
	for _, tbl := range ioTables {
		rest, ok := strings.CutPrefix(full, tbl.prefix)
		if !ok {
			continue
		}
		for _, n := range strings.Fields(tbl.names) {
			if rest == n {
				kind := "file I/O"
				if strings.HasPrefix(tbl.prefix, "net") || strings.Contains(tbl.prefix, "http") {
					kind = "network I/O"
				}
				return kind + " (" + full + ")"
			}
		}
	}
	return ""
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamed reports whether t (possibly behind a pointer) is the named type
// pkgSuffix.name. An empty pkgSuffix matches any package; otherwise the
// defining package's path must end in pkgSuffix (so both the real module
// path and test-fixture module paths match) or its package name must
// equal pkgSuffix.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	n := namedOf(t)
	if n == nil || n.Obj() == nil || n.Obj().Name() != name {
		return false
	}
	if pkgSuffix == "" {
		return true
	}
	pkg := n.Obj().Pkg()
	if pkg == nil {
		return false
	}
	return strings.HasSuffix(pkg.Path(), pkgSuffix) || pkg.Name() == pkgSuffix
}

// recvType is fn's receiver type, or nil for a plain function or a
// literal (fn == nil).
func recvType(fn *types.Func) types.Type {
	if fn == nil {
		return nil
	}
	if r := fn.Type().(*types.Signature).Recv(); r != nil {
		return r.Type()
	}
	return nil
}

// objOf resolves an identifier to its object (use or def).
func objOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// calleeFullName returns the fully qualified name of a called function
// ("time.Now", "os.Create") or "" when the callee is not a static
// package-level function or method.
func calleeFullName(info *types.Info, call *ast.CallExpr) string {
	if fn := staticCallee(info, call); fn != nil {
		return fn.FullName()
	}
	return ""
}

// calleeName returns the bare name of the called function or method.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// usesVar reports whether any identifier inside n resolves to v.
func usesVar(info *types.Info, n ast.Node, v types.Object) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objOf(info, id) == v {
			found = true
		}
		return !found
	})
	return found
}
