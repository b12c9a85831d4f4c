package trace

import (
	"context"
	"errors"
	"fmt"

	"codsim/internal/fom"
	"codsim/internal/scenario"
)

// ErrIncomplete marks a run that reached neither terminal phase within its
// sim-time budget: the trainee was still working when time ran out. Run's
// timeout error wraps it, so callers can tell "did not finish" apart from
// setup failures and cancellation with errors.Is.
var ErrIncomplete = errors.New("scenario incomplete within sim-time budget")

// ErrStalled marks a dry-run aborted by the early-exit check: no crane's
// phase cursor advanced within the stall budget, so the run could not have
// completed no matter how much budget remained. It wraps ErrIncomplete, so
// every caller that already treats "incomplete" as a failed verdict (not a
// fault) handles stalls identically.
var ErrStalled = fmt.Errorf("no phase progress within the stall budget: %w", ErrIncomplete)

// DefaultStallBudget is the early-exit window, in simulated seconds, that
// Completable applies to oracle dry-runs. Calibration: the longest gap
// between phase-cursor advances across the shipped library flown by the
// slowest supported trainee (the novice preset) is ~71 sim-seconds — the
// heavy-derate carry leg — so 180 s is ~2.5× that worst legitimate gap.
// The expert the oracle actually flies progresses faster still; the
// calibration test in this package measures the gap, and a verdict-
// equivalence sweep over the library and a generated corpus backs the
// margin (see gen's oracle tests).
const DefaultStallBudget = 180.0

// RunResult reports one headless scenario run.
type RunResult struct {
	Scenario string
	State    fom.ScenarioState // terminal combined scenario state
	SimTime  float64           // simulated seconds consumed
	Passed   bool
	Alarms   uint32 // alarm lamps raised during the run (engine count)
}

// Runner owns the reusable scratch of one headless running goroutine: the
// Flight it re-seats for every run, per-crane slices kept. Reusing a
// Runner across many runs (a campaign worker slot, an oracle certification
// loop) keeps the steady-state stepping path free of allocations; the zero
// value is ready to use. Not safe for concurrent use — one Runner per
// goroutine.
type Runner struct {
	// StallBudget, when positive, aborts a run with ErrStalled once no
	// crane's phase cursor has advanced for that many simulated seconds.
	// Zero disables the early exit: the run uses its full maxSim budget,
	// exactly as the pre-early-exit semantics. Completable sets
	// DefaultStallBudget; sweeps that fly deliberately slow trainees keep 0.
	StallBudget float64

	flight Flight
}

// RunContext executes a scenario spec headless — one dynamics rig and one
// autopilot per declared crane coupled directly to the engine at 60 Hz,
// no federation — until the scenario reaches a terminal phase or maxSim
// simulated seconds elapse. This is the fast path for regression tables
// and batch smoke runs; the cluster path in package sim runs the same
// spec across the full federation. A canceled context stops the stepping
// loop within one simulated second and returns ctx.Err() with the state
// reached so far, so a batch coordinator can abandon a shard without
// waiting out its sim-time budget.
func RunContext(ctx context.Context, spec scenario.Spec, maxSim float64) (RunResult, error) {
	return RunSkill(ctx, spec, maxSim, SkillProfile{})
}

// RunSkill is RunContext with a trainee skill profile: every crane's
// autopilot flies with the given sloppiness (the zero profile is the
// classic expert). Sweeping the presets over a scenario matrix yields
// realistic score distributions instead of near-perfect runs. It always
// flies: a certified job answered from its certification never reaches
// it (see Take).
func RunSkill(ctx context.Context, spec scenario.Spec, maxSim float64, skill SkillProfile) (RunResult, error) {
	return (&Runner{}).RunSkill(ctx, spec, maxSim, skill)
}

// RunSkill runs one scenario on the Runner's scratch; see the package
// function of the same name for semantics. The flying is Flight's; what is
// here is the policy around it — the context poll, the stall window, the
// budget and the result.
func (r *Runner) RunSkill(ctx context.Context, spec scenario.Spec, maxSim float64, skill SkillProfile) (RunResult, error) {
	res := RunResult{Scenario: spec.Name}
	fl := &r.flight
	if err := fl.reset(spec, skill); err != nil {
		return res, err
	}
	eng := fl.Engine
	result := func() {
		res.SimTime = fl.SimTime
		res.State = eng.State()
		res.Alarms = eng.AlarmEvents()
	}
	progress, progressAt := eng.Progress(), 0.0
	for fl.SimTime < maxSim {
		// Checking the context (and the stall window) every simulated
		// second keeps the hot loop free of per-step synchronization.
		if fl.Ticks%60 == 0 {
			if ctx.Err() != nil {
				result()
				return res, ctx.Err()
			}
			if r.StallBudget > 0 {
				if p := eng.Progress(); p != progress {
					progress, progressAt = p, fl.SimTime
				} else if fl.SimTime-progressAt >= r.StallBudget {
					result()
					return res, fmt.Errorf("trace: scenario %s still %v at %.0f sim-seconds (%s): %w",
						spec.Name, res.State.Phase, res.SimTime, res.State.Message, ErrStalled)
				}
			}
		}
		if fl.Done() {
			break
		}
		fl.Tick()
	}
	result()
	res.Passed = res.State.Phase == fom.PhaseComplete
	if !fl.Done() {
		return res, fmt.Errorf("trace: scenario %s still %v after %.0f sim-seconds (%s): %w",
			spec.Name, res.State.Phase, maxSim, res.State.Message, ErrIncomplete)
	}
	return res, nil
}

// Completable is the completability oracle's dry-run entry point: it flies
// the spec headless with the flawless expert autopilot and reports whether
// the scenario was passed within maxSim simulated seconds. The run early-
// exits (verdict false) once no phase cursor advances for
// DefaultStallBudget simulated seconds — a hopeless candidate costs a
// stall window, not the full budget, and the novice-calibrated window
// cannot fire on a run an expert could still complete. ok is false both
// for a failed verdict (score under the pass mark) and for a run that
// never reached a terminal phase; err carries only genuine faults — a spec
// or rig that cannot be built, or ctx canceled mid-run — so a campaign
// generator can resample on !ok and abort on err.
//
// Completable only flies and reports: a passing run is recorded into the
// Note on ctx (WithNote), if there is one, and nothing else. Parking it
// for the job that flies the certified spec (Park) is left to gen's
// certification lane, the one producer of answers.
func Completable(ctx context.Context, spec scenario.Spec, maxSim float64) (RunResult, bool, error) {
	res, err := (&Runner{StallBudget: DefaultStallBudget}).RunSkill(ctx, spec, maxSim, SkillProfile{})
	if errors.Is(err, ErrIncomplete) {
		return res, false, nil
	}
	if err != nil || !res.Passed {
		return res, false, err
	}
	if n, _ := ctx.Value(noteKey{}).(*Note); n != nil {
		*n = Note{budget: maxSim, res: res, full: true}
	}
	return res, true, nil
}
