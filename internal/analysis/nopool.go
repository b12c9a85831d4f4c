package analysis

import (
	"go/ast"
	"slices"
)

// NoPool confines sync.Pool to the wire/cb boundary. Pooled buffers are
// only sound under the ownership rule those two packages define (package
// wire's doc: a link's frame is valid until its handler returns, and what
// is kept past that is copied or taken over). A pool elsewhere has no such
// release point: a reference that outlives the put turns into silent
// cross-request corruption that only shows under load. Packages that
// need reusable scratch take it from wire.GetAttrSet/PutAttrSet — inside
// the audited boundary — or keep allocations local.
var NoPool = &Analyzer{
	Name: "nopool",
	Doc:  "confine sync.Pool to internal/wire and internal/cb, the audited buffer-ownership boundary",
	Run:  runNoPool,
}

func runNoPool(pass *Pass) error {
	if slices.Contains(PoolPackages, pass.Path) {
		return nil
	}
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
				"sync.Pool in %s: pools are confined to internal/wire and internal/cb (the ownership rule in package wire's doc); use wire.GetAttrSet for scratch or allocate locally",
				pass.Path)
			return true
		})
	}
	return nil
}
