// Seeded-violation fixture for the policydecl analyzer: subscription
// call sites on both the typed SDK and the backbone, with and without an
// explicit delivery policy.
package policyfix

import (
	"codsim/cod"
	"codsim/internal/cb"
)

type state struct{ X float64 }

// implicitDefault omits the policy entirely.
func implicitDefault(n *cod.Node) {
	cod.Subscribe[state](n, "visual", "CraneState") // want `cod\.Subscribe call site relies on the implicit default delivery policy`
}

// tunedButUndeclared passes options, none of which is a policy.
func tunedButUndeclared(n *cod.Node) {
	cod.Subscribe[state](n, "visual", "CraneState", cod.WithQueue(8)) // want `cod\.Subscribe call site passes options but none is a provable delivery policy`
}

// spreadOptions forwards a variadic option slice the analyzer cannot
// prove contains a policy.
func spreadOptions(n *cod.Node, opts []cod.SubOption) {
	cod.Subscribe[state](n, "visual", "CraneState", opts...) // want `cod\.Subscribe call site passes options but none is a provable delivery policy`
}

// explicitPolicies are the accepted forms: a direct constructor call
// among the options, in any position.
func explicitPolicies(n *cod.Node) {
	cod.Subscribe[state](n, "visual", "CraneState", cod.LatestValue())
	cod.Subscribe[state](n, "visual", "CraneState", cod.WithQueue(8), cod.LatestValue())
	cod.Subscribe[state](n, "visual", "CraneState", cod.Reliable(4), cod.WithQueue(64))
}

// backboneImplicit exercises the attribute-level entry point.
func backboneImplicit(b *cb.Backbone) {
	b.SubscribeObjectClass("visual", "CraneState") // want `cb\.SubscribeObjectClass call site relies on the implicit default delivery policy`
}

// backboneExplicit declares the legacy-surface policy.
func backboneExplicit(b *cb.Backbone) {
	b.SubscribeObjectClass("visual", "CraneState", cb.WithQueue(64), cb.WithDropOldest())
	b.SubscribeObjectClass("visual", "CraneState", cb.WithReliable(8))
}
