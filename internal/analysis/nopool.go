package analysis

import "go/ast"

// NoPool forbids sync.Pool. A pooled buffer has no owner, so nothing says
// when it may be put back: a reference that outlives the put turns into
// silent cross-request corruption that only shows under load. Reused
// storage has one owner instead — a backbone link keeps what consumers
// hand back, a publication its encode scratch (the ownership rule in
// package wire's doc) — or the allocation stays local.
var NoPool = &Analyzer{
	Name: "nopool",
	Doc:  "forbid sync.Pool: reused buffers have one owner, as a backbone link and a publication do",
	Run:  runNoPool,
}

func runNoPool(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pn := pass.pkgNameOf(sel)
			if pn == nil {
				return true
			}
			// Unlike the function-reference analyzers, the pool hazard is
			// the type itself: `var p sync.Pool`, a composite literal, or
			// an embedded field all mint a pool, so every sync.Pool
			// selector counts.
			if pn.Imported().Path() != "sync" || sel.Sel.Name != "Pool" {
				return true
			}
			if pass.Allowed(pass.EnclosingFunc(sel.Pos())) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"sync.Pool in %s: give reused storage one owner (the ownership rule in package wire's doc) or allocate locally",
				pass.Path)
			return true
		})
	}
	return nil
}
