package analysis

import (
	"go/ast"
	"slices"
)

// policyConstructors are the delivery-policy options of the cod SDK and
// the backbone. A subscription call site must name one of these among
// its options; mailbox-depth tuning (WithQueue) alone does not count —
// the question "what happens at saturation" must be answered in source.
var policyConstructors = map[string][]string{
	"codsim/cod":         {"LatestValue", "Reliable"},
	"codsim/internal/cb": {"WithLatestValue", "WithReliable", "WithDropOldest"},
}

// subscribeEntryPoints are the functions whose call sites must declare a
// policy: the typed SDK Subscribe and the backbone's attribute-level
// SubscribeObjectClass (the method the pre-SDK internal modules use).
// The publish side carries no policy parameter in this design — the
// saturation contract is declared where the mailbox lives, on the
// subscriber — so Subscribe call sites are the whole surface.
var subscribeEntryPoints = map[string][]string{
	"codsim/cod":         {"Subscribe"},
	"codsim/internal/cb": {"SubscribeObjectClass"},
}

// PolicyDecl requires every subscription call site to pass an explicit
// delivery-policy option, so the saturation contract of each channel
// class is visible at the point of subscription and never regresses to
// an implicit default (PR 5's per-channel policies stay load-bearing).
// Packages codsim/cod and codsim/internal/cb are exempt: they implement
// the default and the legacy contract.
var PolicyDecl = &Analyzer{
	Name: "policydecl",
	Doc:  "every cod.Subscribe / SubscribeObjectClass call site must pass an explicit delivery-policy option",
	Run:  runPolicyDecl,
}

func runPolicyDecl(pass *Pass) error {
	if _, defining := subscribeEntryPoints[pass.Path]; defining {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := pass.funcOf(call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			entries, ok := subscribeEntryPoints[fn.Pkg().Path()]
			if !ok || !slices.Contains(entries, fn.Name()) {
				return true
			}
			// The three leading arguments are fixed (node/lp/class for
			// cod.Subscribe, lp/class for the backbone method); every
			// trailing argument is an option.
			sig := fn.Signature()
			fixed := sig.Params().Len() - 1 // all but the variadic options slot
			if len(call.Args) > fixed {
				for _, arg := range call.Args[fixed:] {
					if pass.isPolicyOption(arg) {
						return true
					}
				}
			}
			if pass.Allowed(pass.EnclosingFunc(call.Pos())) {
				return true
			}
			if len(call.Args) > fixed || call.Ellipsis.IsValid() {
				pass.Reportf(call.Pos(),
					"%s.%s call site passes options but none is a provable delivery policy: pass cod.LatestValue()/cod.Reliable(n) directly, or allowlist the enclosing function with a reason",
					fn.Pkg().Name(), fn.Name())
			} else {
				pass.Reportf(call.Pos(),
					"%s.%s call site relies on the implicit default delivery policy: declare cod.LatestValue()/cod.Reliable(n) explicitly",
					fn.Pkg().Name(), fn.Name())
			}
			return true
		})
	}
	return nil
}

// isPolicyOption reports whether arg is a direct call to one of the
// delivery-policy constructors.
func (p *Pass) isPolicyOption(arg ast.Expr) bool {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return false
	}
	fn := p.funcOf(call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	names, ok := policyConstructors[fn.Pkg().Path()]
	return ok && slices.Contains(names, fn.Name())
}
