package analysis

import (
	"go/ast"
	"go/types"
	"slices"
)

// forbiddenTimeFuncs are the wall-clock entry points of package time. A
// deterministic package that needs "now" takes the simulation clock as a
// parameter; one that needs a delay advances sim time. (Pure types like
// time.Duration remain fine: only these members are flagged.)
var forbiddenTimeFuncs = []string{
	"Now", "Since", "Until", "Sleep", "After", "AfterFunc",
	"Tick", "NewTimer", "NewTicker",
}

// sanctionedRandFuncs are the math/rand (and v2) members that do NOT
// touch the global source: constructors for explicitly seeded
// generators. Everything else at package level draws from the shared
// process-global state and is forbidden.
var sanctionedRandFuncs = []string{
	"New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8",
}

// Determinism forbids wall-clock and global-math/rand use inside the
// declared-deterministic packages, and wall-clock use outside
// internal/clock inside ClockPackages. The campaign key of a generated
// scenario sweep is a pure function of (seed, params); one stray
// time.Now() or rand.Intn() in scenario/gen silently breaks replay and
// the distributed==local verdict contract, so the sanctioned sources —
// seeded *rand.Rand values and the simulation clock threaded through
// APIs — are the only ones allowed.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid time.Now/time.Sleep/global math/rand in declared-deterministic packages, and time.Now/time.Sleep in clock packages",
	Run:  runDeterminism,
}

func runDeterminism(pass *Pass) error {
	deterministic := slices.Contains(DeterministicPackages, pass.Path)
	if !deterministic && !slices.Contains(ClockPackages, pass.Path) {
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
			// Only function references are nondeterminism sources; type
			// references (*rand.Rand fields, time.Duration params) are
			// exactly the sanctioned seeded/sim-clock plumbing.
			if _, isFunc := pass.Info.Uses[sel.Sel].(*types.Func); !isFunc {
				return true
			}
			name := sel.Sel.Name
			switch pn.Imported().Path() {
			case "time":
				if slices.Contains(forbiddenTimeFuncs, name) && !pass.Allowed(pass.EnclosingFunc(sel.Pos())) {
					kind, fix := "deterministic", "use the simulation clock (seeded replay must not observe wall time)"
					if !deterministic {
						kind, fix = "clock", "read time through internal/clock (a test must be able to move it)"
					}
					pass.Reportf(sel.Pos(), "time.%s in %s package %s: %s", name, kind, pass.Path, fix)
				}
			case "math/rand", "math/rand/v2":
				if deterministic && !slices.Contains(sanctionedRandFuncs, name) && !pass.Allowed(pass.EnclosingFunc(sel.Pos())) {
					pass.Reportf(sel.Pos(),
						"global rand.%s in deterministic package %s: draw from a seeded *rand.Rand instead",
						name, pass.Path)
				}
			}
			return true
		})
	}
	return nil
}
