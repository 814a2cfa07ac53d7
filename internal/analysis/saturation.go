package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Saturation closes the PR 1 overflow class for good: pileup counters
// (pipeline.SiteCounts fields) wrap at their type maximum if incremented
// raw, scrambling the best/second-base ranking at deep repeat regions.
// All accumulation must go through the saturating helpers (SiteCounts
// methods such as Add, and SatDepth for wide-to-narrow clamps); raw ++
// or += on a SiteCounts field anywhere else is flagged.
var Saturation = &Analyzer{
	Name: "saturation",
	Doc: "flag raw ++/+= on SiteCounts pileup-counter fields outside " +
		"the saturating helper methods",
	Run: runSaturation,
}

func runSaturation(pass *Pass) {
	info := pass.TypesInfo
	for _, fn := range pass.Funcs {
		// The saturating helpers are the methods of SiteCounts itself:
		// they are the one place a guarded raw increment is the point.
		if isNamed(recvType(fn.Fn), "", "SiteCounts") {
			continue
		}
		for _, s := range fn.Stmts {
			switch n := s.(type) {
			case *ast.IncDecStmt:
				if n.Tok == token.INC && isSiteCountsField(info, n.X) {
					pass.Reportf(n.Pos(),
						"raw ++ on a SiteCounts counter wraps at the type maximum; use the saturating helpers (SiteCounts.Add / SatDepth)")
				}
			case *ast.AssignStmt:
				if n.Tok != token.ADD_ASSIGN {
					continue
				}
				for _, lhs := range n.Lhs {
					if isSiteCountsField(info, lhs) {
						pass.Reportf(n.Pos(),
							"raw += on a SiteCounts counter wraps at the type maximum; use the saturating helpers (SiteCounts.Add / SatDepth)")
					}
				}
			}
		}
	}
}

// isSiteCountsField matches c.Depth, c.Count[b], c.QualSum[b], ... — a
// selector on a SiteCounts value, possibly through an index.
func isSiteCountsField(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	// counts[i].Depth selects on the IndexExpr whose type is already the
	// SiteCounts element type; pointers are unwrapped by isNamed.
	return isNamed(info.TypeOf(sel.X), "", "SiteCounts")
}
