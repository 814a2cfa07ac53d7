package analysis

import (
	"go/ast"
	"go/types"
)

// CloseCheck flags `defer f.Close()` on writable files and compressing
// writers (gzip, flate, zlib), and `defer bw.Flush()` on bufio.Writer:
// Close and Flush are where buffered bytes hit the disk, so a discarded
// error (ENOSPC, quota, NFS flush) silently truncates the output the run
// just spent hours producing. Writable handles must be closed or flushed
// explicitly with the error propagated, or in a deferred closure that
// joins the error into the function's named return.
//
// Read-only files are exempt: their Close error cannot lose data.
var CloseCheck = &Analyzer{
	Name: "closecheck",
	Doc: "flag defer f.Close() discarding the error on writable files " +
		"and gzip/flate/zlib writers, and defer bw.Flush() on bufio writers",
	Run: runCloseCheck,
}

func runCloseCheck(pass *Pass) {
	info := pass.TypesInfo
	for _, fn := range pass.Funcs {
		for _, s := range fn.Stmts {
			df, ok := s.(*ast.DeferStmt)
			if !ok {
				continue
			}
			sel, ok := ast.Unparen(df.Call.Fun).(*ast.SelectorExpr)
			if !ok || len(df.Call.Args) != 0 {
				continue
			}
			switch sel.Sel.Name {
			case "Close":
				if why := writableCloser(info, fn, sel.X); why != "" {
					pass.Reportf(df.Pos(),
						"defer %s discards the Close error of a %s; a full disk loses buffered output silently — close explicitly and propagate the error",
						types.ExprString(sel), why)
				}
			case "Flush":
				if isNamed(info.TypeOf(sel.X), "bufio", "Writer") {
					pass.Reportf(df.Pos(),
						"defer %s discards the Flush error of a bufio writer; the final buffered chunk is exactly what a full disk drops — flush explicitly and propagate the error",
						types.ExprString(sel))
				}
			}
		}
	}
}

// compressingWriters are the stdlib writers whose Close flushes the
// stream footer: losing its error loses the tail of the output.
var compressingWriters = []struct{ pkg, desc string }{
	{"compress/gzip", "gzip writer"},
	{"compress/flate", "flate writer"},
	{"compress/zlib", "zlib writer"},
}

// writableCloser classifies x as a writer whose Close reports data loss,
// returning a short description or "": a compressing writer, or a
// variable fn opened a file for writing into.
func writableCloser(info *types.Info, fn *FuncInfo, x ast.Expr) string {
	for _, w := range compressingWriters {
		if isNamed(info.TypeOf(x), w.pkg, "Writer") {
			return w.desc
		}
	}
	if id, ok := ast.Unparen(x).(*ast.Ident); ok {
		for _, o := range fn.Opens {
			if o.Var != nil && o.Var == objOf(info, id) && o.Mode >= openWrite {
				return "file opened for writing"
			}
		}
	}
	return ""
}
