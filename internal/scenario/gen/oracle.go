package gen

import (
	"context"
	"fmt"
	"math"

	"codsim/internal/mathx"
	"codsim/internal/scenario"
	"codsim/internal/terrain"
	"codsim/internal/trace"
)

// Oracle certifies one candidate spec: ok reports whether it is provably
// completable, err carries only genuine faults (a rig that cannot be
// built, a canceled context) — a campaign resamples on !ok and aborts on
// err. Verify is the real oracle; StaticOnly is the free approximation
// for previews and tests that must not spend sim time.
type Oracle func(ctx context.Context, spec scenario.Spec) (ok bool, err error)

// Reach bounds the static check mirrors from the autopilot's working
// geometry: with the boom fully retracted at the steep working luff the
// hook cannot come closer than ~6.6 m to the mast, and the library keeps
// every work target within 15 m of the parking spot so the expert pilot
// never has to out-drive its own boom. Static limits are slightly wider
// than the sampler's bands on purpose — the check guards against
// generator drift and hand-written campaign params, not against the
// shipped defaults.
const (
	minWorkRadius = 6.0
	maxWorkRadius = 15.5
)

// StaticCheck is the reachability pre-check: it rejects geometry that no
// dry-run could rescue — work targets outside the crane's radius band
// from its parking spot, sites off the levelled test ground, bars too
// tall to carry over — without spending any sim time. It never certifies
// a spec (dynamics, wind and scoring still get a say); it only prunes the
// obviously impossible before the expensive dry-run.
func StaticCheck(spec scenario.Spec) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	decls := spec.CraneDecls()
	// Each crane's parking spot is its first drive target; a crane that
	// never drives works from its start pose.
	parks := make([]mathx.Vec3, len(decls))
	for c, d := range decls {
		parks[c] = d.Start
	}
	for _, p := range spec.Phases {
		if p.Kind == scenario.PhaseDrive {
			parks[p.Crane] = p.Target
		}
	}
	check := func(crane int, label string, at mathx.Vec3) error {
		d := math.Hypot(at.X-parks[crane].X, at.Z-parks[crane].Z)
		if d < minWorkRadius || d > maxWorkRadius {
			return fmt.Errorf("gen: scenario %s: %s at %.1f m from crane %d's parking spot (reachable band %.1f–%.1f m)",
				spec.Name, label, d, crane, minWorkRadius, maxWorkRadius)
		}
		if !onLevelGround(at) {
			return fmt.Errorf("gen: scenario %s: %s off the levelled test ground", spec.Name, label)
		}
		return nil
	}
	for i, p := range spec.Phases {
		switch p.Kind {
		case scenario.PhaseLift:
			if err := check(p.Crane, fmt.Sprintf("phase %d lift of cargo %d", i, p.Cargo), spec.Cargos[p.Cargo].Pos); err != nil {
				return err
			}
		case scenario.PhasePlace:
			if err := check(p.Crane, fmt.Sprintf("phase %d place target", i), p.Target); err != nil {
				return err
			}
		case scenario.PhaseTraverse:
			for w, wp := range p.Waypoints {
				if err := check(p.Crane, fmt.Sprintf("phase %d gate %d", i, w), wp); err != nil {
					return err
				}
			}
		}
	}
	for _, b := range spec.Course.Bars {
		if top := b.Pos.Y + b.Half.Y; top > 4.0 {
			return fmt.Errorf("gen: scenario %s: bar %s tops out at %.1f m — too tall to carry over", spec.Name, b.Name, top)
		}
	}
	return nil
}

// onLevelGround reports whether a ground-plane point sits inside the
// levelled test-ground circle where generated work must happen (placing
// on a slope defeats the settle detector).
func onLevelGround(at mathx.Vec3) bool {
	return math.Hypot(at.X-terrain.TestGroundX, at.Z-terrain.TestGroundZ) <= terrain.TestGroundRadius-2
}

// Verify is the full completability oracle: the static reachability check
// first (free), then a headless dry-run with the flawless expert
// autopilot (trace.Completable — the same direct-coupled fast path
// sim.RunBatch uses). ok means the expert passed the scenario within
// budget simulated seconds, so a trainee at least *can*; !ok with nil err
// means resample. budget ≤ 0 applies the headless default of three par
// times, floored at 900 s.
func Verify(ctx context.Context, spec scenario.Spec, budget float64) (bool, error) {
	if err := StaticCheck(spec); err != nil {
		return false, nil //nolint:nilerr // static rejection means resample, not abort
	}
	_, ok, err := trace.Completable(ctx, spec, budgetFor(spec, budget))
	return ok, err
}

// budgetFor is the sim-time budget Verify flies spec within: budget, or
// the headless default when budget ≤ 0.
func budgetFor(spec scenario.Spec, budget float64) float64 {
	if budget <= 0 {
		return trace.DefaultBudget(spec)
	}
	return budget
}

// DefaultOracle adapts Verify into an Oracle with the params' sim-time
// budget baked in.
func DefaultOracle(p Params) Oracle {
	return func(ctx context.Context, spec scenario.Spec) (bool, error) {
		return Verify(ctx, spec, p.OracleBudget)
	}
}

// StaticOnly is the free oracle: the reachability pre-check alone, no
// dry-run. Use it for previews (-campaign -list) and protocol tests where
// certification strength doesn't matter; campaigns that dispatch real
// work want DefaultOracle.
func StaticOnly(_ context.Context, spec scenario.Spec) (bool, error) {
	return StaticCheck(spec) == nil, nil
}
