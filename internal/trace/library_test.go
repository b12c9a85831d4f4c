package trace

import (
	"context"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/scenario"
)

// TestLibraryScenariosComplete is the library's acceptance gate: every
// shipped scenario must validate, and the generalized autopilot must
// complete each one headless with a passing score and no bar strikes.
func TestLibraryScenariosComplete(t *testing.T) {
	lib := scenario.Library()
	if len(lib) < 5 {
		t.Fatalf("library ships %d scenarios, want >= 5", len(lib))
	}
	seen := make(map[string]bool, len(lib))
	for _, spec := range lib {
		spec := spec
		if seen[spec.Name] {
			t.Fatalf("duplicate scenario name %q", spec.Name)
		}
		seen[spec.Name] = true
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			if err := spec.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			res, err := RunContext(context.Background(), spec, 900)
			if err != nil {
				t.Fatal(err)
			}
			if res.State.Phase != fom.PhaseComplete {
				t.Fatalf("phase=%v score=%.1f wp=%d idx=%d msg=%q after %.0f s",
					res.State.Phase, res.State.Score, res.State.Waypoint,
					res.State.PhaseIndex, res.State.Message, res.SimTime)
			}
			if res.State.Score < spec.Score.PassMark {
				t.Errorf("score %.1f below pass mark %.1f", res.State.Score, spec.Score.PassMark)
			}
			if res.State.Collisions != 0 {
				t.Errorf("autopilot struck %d bars (carries above them)", res.State.Collisions)
			}
			t.Logf("%s: score %.1f in %.1f sim-seconds", spec.Title, res.State.Score, res.SimTime)
		})
	}
}

// TestAutopilotClampsForeignPhaseIndex feeds telemetry whose PhaseIndex
// lies outside the autopilot's own graph — a mismatched or older spec
// revision on the wire — and expects a controlled input, not a panic.
func TestAutopilotClampsForeignPhaseIndex(t *testing.T) {
	ap := ForCrane(scenario.Classic(), 0)
	scen := fom.ScenarioState{Phase: fom.PhaseLifting, PhaseIndex: 99}
	in := ap.Control(fom.CraneState{}, scen, 0.1)
	if !in.Ignition {
		t.Error("clamped control lost ignition")
	}
}

// TestAutopilotFallsBackToCoarsePhase feeds telemetry without a phase
// index — an older scenario LP on the wire — and expects the controller to
// act on the coarse phase instead of being stuck in the graph's entry node.
func TestAutopilotFallsBackToCoarsePhase(t *testing.T) {
	ap := ForCrane(scenario.Classic(), 0)
	scen := fom.ScenarioState{Phase: fom.PhaseLifting, PhaseIndex: fom.PhaseIndexUnknown}
	in := ap.Control(fom.CraneState{}, scen, 0.1)
	if in.Brake != 1 || in.Gear != 0 {
		t.Errorf("unknown-index lifting telemetry did not park the carrier: %+v", in)
	}
	if in.Throttle != 0 {
		t.Error("autopilot kept driving on lifting telemetry")
	}
}

// TestByName covers library lookup.
func TestByName(t *testing.T) {
	s, err := scenario.ByName("classic-exam")
	if err != nil || s.Name != "classic-exam" {
		t.Fatalf("ByName(classic-exam) = %v, %v", s.Name, err)
	}
	if _, err := scenario.ByName("no-such-scenario"); err == nil {
		t.Fatal("unknown scenario name accepted")
	}
}

// TestNightPrecisionGraphShape pins the multi-node phase graph: the night
// scenario lifts the same cargo twice and places it twice, proving the
// engine and autopilot handle graphs beyond the linear exam.
func TestNightPrecisionGraphShape(t *testing.T) {
	spec := scenario.NightPrecision()
	var lifts, places int
	for _, ps := range spec.Phases {
		switch ps.Kind {
		case scenario.PhaseLift:
			lifts++
		case scenario.PhasePlace:
			places++
		}
	}
	if lifts != 2 || places != 2 {
		t.Fatalf("lifts=%d places=%d, want 2/2", lifts, places)
	}
}
