package trace

import (
	"context"
	"errors"
	"testing"

	"codsim/internal/mathx"
	"codsim/internal/scenario"
)

// The early-exit window must never change a verdict on the shipped
// library: with and without a stall budget, every scenario completes
// with the identical terminal state. (The generated-corpus half of this
// equivalence sweep lives in gen's oracle tests — gen imports trace, so
// the corpus cannot be flown from here.)
func TestStallBudgetVerdictEquivalenceLibrary(t *testing.T) {
	for _, spec := range scenario.Library() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			full, errFull := (&Runner{}).RunSkill(context.Background(), spec, 900, SkillProfile{})
			early, errEarly := (&Runner{StallBudget: DefaultStallBudget}).RunSkill(context.Background(), spec, 900, SkillProfile{})
			if (errFull == nil) != (errEarly == nil) {
				t.Fatalf("verdict changed: full err=%v, early err=%v", errFull, errEarly)
			}
			if full.Passed != early.Passed || full.State.Phase != early.State.Phase ||
				full.State.Score != early.State.Score || full.SimTime != early.SimTime {
				t.Fatalf("terminal state changed:\nfull  %+v @ %.2f\nearly %+v @ %.2f",
					full.State, full.SimTime, early.State, early.SimTime)
			}
		})
	}
}

// The stall budget is calibrated against the slowest supported trainee:
// the novice preset must clear every library scenario without the
// early-exit ever firing, with the measured worst inter-progress gap
// comfortably inside the budget. This test backs the ~70 s calibration
// claim in DefaultStallBudget's doc.
func TestStallBudgetClearsNoviceLibrary(t *testing.T) {
	if testing.Short() {
		t.Skip("novice library sweep in -short")
	}
	novice := SkillNovice()
	worst := 0.0
	for _, spec := range scenario.Library() {
		gap, err := maxProgressGap(t, spec, novice)
		if err != nil {
			t.Fatalf("%s: novice run: %v", spec.Name, err)
		}
		t.Logf("%s: worst novice progress gap %.1f sim-s", spec.Name, gap)
		if gap > worst {
			worst = gap
		}
	}
	if worst >= DefaultStallBudget {
		t.Fatalf("novice worst progress gap %.1f sim-s >= stall budget %.0f — budget would veto a legitimate trainee pace", worst, DefaultStallBudget)
	}
	if worst > 100 {
		t.Errorf("novice worst progress gap %.1f sim-s drifted far from the documented ~70 s calibration — update DefaultStallBudget's doc", worst)
	}
}

// maxProgressGap flies a scenario on a Flight and records the longest
// stretch of simulated seconds with no phase-cursor advance, sampled at
// the same once-per-sim-second cadence the stall check uses.
func maxProgressGap(t *testing.T, spec scenario.Spec, skill SkillProfile) (float64, error) {
	t.Helper()
	fl, err := NewFlight(spec, skill)
	if err != nil {
		return 0, err
	}
	progress, progressAt, worst := fl.Engine.Progress(), 0.0, 0.0
	for fl.SimTime < 900 {
		if fl.Ticks%60 == 0 {
			if p := fl.Engine.Progress(); p != progress {
				progress, progressAt = p, fl.SimTime
			} else if gap := fl.SimTime - progressAt; gap > worst {
				worst = gap
			}
		}
		if fl.Done() {
			return worst, nil
		}
		fl.Tick()
	}
	return worst, errors.New("scenario incomplete at 900 sim-seconds")
}

// A genuinely hopeless run — a work target dragged outside the crane's
// reach band — must be aborted by the stall window, with ErrStalled
// satisfying errors.Is(err, ErrIncomplete) so verdict mapping treats it
// as a plain failed candidate.
func TestStallBudgetAbortsHopelessRun(t *testing.T) {
	spec := scenario.Classic()
	moved := false
	for i := range spec.Phases {
		if spec.Phases[i].Kind == scenario.PhasePlace {
			spec.Phases[i].Target = spec.Phases[i].Target.Add(mathx.V3(40, 0, 0))
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("classic spec has no place phase to sabotage")
	}

	res, err := (&Runner{StallBudget: DefaultStallBudget}).RunSkill(context.Background(), spec, 900, SkillProfile{})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("want ErrStalled, got %v", err)
	}
	if !errors.Is(err, ErrIncomplete) {
		t.Fatal("ErrStalled must wrap ErrIncomplete for verdict mapping")
	}
	if res.SimTime > DefaultStallBudget*2 {
		t.Fatalf("early exit fired at %.0f sim-s — not early against a 900 s budget", res.SimTime)
	}

	// And the oracle maps the stall to a clean false verdict, not a fault.
	_, ok, err := Completable(context.Background(), spec, 900)
	if err != nil {
		t.Fatalf("Completable returned a fault for a stalled run: %v", err)
	}
	if ok {
		t.Fatal("Completable certified an unreachable target")
	}
}

// A Runner must be reusable across runs of different crane counts — the
// whole point of the scratch — without state bleeding between runs.
func TestRunnerReuseAcrossRuns(t *testing.T) {
	r := new(Runner)
	lib := scenario.Library()
	for pass := 0; pass < 2; pass++ {
		for _, spec := range lib {
			res, err := r.RunSkill(context.Background(), spec, 900, SkillProfile{})
			if err != nil {
				t.Fatalf("pass %d %s: %v", pass, spec.Name, err)
			}
			if !res.Passed {
				t.Fatalf("pass %d %s: not passed (%+v)", pass, spec.Name, res.State)
			}
		}
	}
}
