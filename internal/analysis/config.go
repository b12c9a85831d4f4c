package analysis

import "strings"

// AllowEntry suppresses one class of finding. Every entry is a written-
// down exception: the Reason is mandatory documentation, shown by
// `codvet -allowlist` and mirrored in AUDIT.md.
type AllowEntry struct {
	// Analyzer names the analyzer the entry applies to.
	Analyzer string
	// Pkg is the import path of the package the finding lands in.
	Pkg string
	// Detail narrows the entry: the forbidden import path for layering,
	// the enclosing function name for the other analyzers, or "*" for
	// any finding of the analyzer in the package.
	Detail string
	// Reason records why the exception is sound.
	Reason string
}

// DefaultAllowlist is the production allowlist codvet runs with. Keep it
// short: an entry is a debt note, not a dismissal.
var DefaultAllowlist = []AllowEntry{{
	Analyzer: "determinism",
	Pkg:      "codsim/internal/sim",
	Detail:   "RunOne",
	Reason:   "BatchResult.Wall is a run's wall seconds by definition",
}}

// DeterministicPackages are the packages whose outputs must be a pure
// function of their seeds: campaign keys, scenario generation, scoring
// and physics replay all break silently if wall-clock time or the global
// math/rand source leaks in. Seeded *rand.Rand values and the simulation
// clock are the only sanctioned sources here.
var DeterministicPackages = []string{
	"codsim/internal/scenario",
	"codsim/internal/scenario/gen",
	"codsim/internal/dynamics",
	"codsim/internal/trace",
	"codsim/internal/collision",
	"codsim/internal/mathx",
}

// ClockPackages read time only through internal/clock, so that a test can
// run them on a clock it moves; the determinism analyzer holds them to
// that, and leaves their math/rand alone.
var ClockPackages = []string{
	"codsim/internal/cb",
	"codsim/internal/dist",
	"codsim/internal/displaysync",
	"codsim/internal/sim",
}

// BoundaryRule forbids a set of imports within a scope of packages.
type BoundaryRule struct {
	// Scope matches packages: a trailing "/" makes it a prefix rule,
	// otherwise the package path must match exactly.
	Scope string
	// Forbidden are import paths (exact or subtree) the scope must not
	// reach.
	Forbidden []string
	// Reason explains the boundary.
	Reason string
}

// Boundaries is the layering table: the SDK boundary PR 1 established,
// now machine-checked. cmd/ and examples/ are SDK consumers — reaching
// into the backbone internals bypasses the typed codec, the delivery-
// policy surface and the compatibility contract. examples/ also stay off
// internal/dynamics: a hand-assembled rig is how the headless tick came to
// be written twelve times. internal/dist runs on headless workers and must
// not pull display-side rendering in.
var Boundaries = []BoundaryRule{
	{
		Scope:     "codsim/cmd/",
		Forbidden: []string{"codsim/internal/cb", "codsim/internal/wire", "codsim/internal/transport"},
		Reason:    "commands ride the public cod SDK, never the backbone internals",
	},
	{
		Scope:     "codsim/examples/",
		Forbidden: []string{"codsim/internal/cb", "codsim/internal/wire", "codsim/internal/transport"},
		Reason:    "examples demonstrate the public SDK surface only",
	},
	{
		Scope:     "codsim/examples/",
		Forbidden: []string{"codsim/internal/dynamics"},
		Reason:    "examples fly a scenario through trace.Flight or the federation; rigs are assembled in one place, scenario.NewRig",
	},
	{
		Scope: "codsim/internal/dist",
		Forbidden: []string{
			"codsim/internal/render", "codsim/internal/displaysync",
			"codsim/internal/dashboard", "codsim/internal/audio",
			"codsim/internal/instructor",
		},
		Reason: "batch coordination is headless; display-side packages stay out",
	},
	{
		Scope:     "codsim/internal/obs",
		Forbidden: []string{"codsim/internal/cb", "codsim/internal/wire", "codsim/internal/transport"},
		Reason:    "the telemetry plane consumes exported Stats/Tables types via the cod SDK's narrow Backbone interface, never the backbone internals",
	},
}

// inScope reports whether pkg falls under a boundary rule's scope.
func (r BoundaryRule) inScope(pkg string) bool {
	if strings.HasSuffix(r.Scope, "/") {
		return strings.HasPrefix(pkg, r.Scope)
	}
	return pkg == r.Scope
}

// forbids reports whether the rule bans importing path (exactly or any
// package under it).
func (r BoundaryRule) forbids(path string) bool {
	for _, f := range r.Forbidden {
		if path == f || strings.HasPrefix(path, f+"/") {
			return true
		}
	}
	return false
}
