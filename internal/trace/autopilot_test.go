package trace

import (
	"testing"

	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/scenario"
)

// TestAutopilotCompletesExam is the closed-loop end-to-end check: the
// synthetic trainee must drive to the test ground, lift the cargo, carry
// it through the whole trajectory and set it back down, passing the exam.
func TestAutopilotCompletesExam(t *testing.T) {
	spec := scenario.Classic()
	fl, err := NewFlight(spec, SkillProfile{})
	if err != nil {
		t.Fatal(err)
	}
	var lastPhase fom.Phase
	for fl.SimTime < 600 { // sim seconds before declaring a hang
		if scen := fl.Engine.State(); scen.Phase != lastPhase {
			t.Logf("t=%6.1f phase=%v score=%.1f msg=%q", fl.SimTime, scen.Phase, scen.Score, scen.Message)
			lastPhase = scen.Phase
		}
		if fl.Done() {
			break
		}
		fl.Tick()
	}

	final := fl.Engine.State()
	st := fl.States[0]
	if final.Phase != fom.PhaseComplete {
		t.Fatalf("exam did not complete: phase=%v score=%.1f waypoint=%d/%d msg=%q "+
			"pos=%v hook=%v cargoHeld=%v after %.0f s",
			final.Phase, final.Score, final.Waypoint, len(spec.Course.Waypoints),
			final.Message, st.Position, st.HookPos, st.CargoHeld, fl.SimTime)
	}
	if final.Score < scenario.DefaultScore().PassMark {
		t.Errorf("score = %.1f below pass mark", final.Score)
	}
	if final.Collisions != 0 {
		t.Errorf("autopilot hit %d bars (carries above them)", final.Collisions)
	}
	if fl.SimTime > spec.Course.ParTime+120 {
		t.Errorf("exam took %.0f s, want near par %v", fl.SimTime, spec.Course.ParTime)
	}
	t.Logf("exam complete: %.1f points in %.1f s", final.Score, fl.SimTime)
}

// TestCarelessRunFailsExam is the scoring of Fig. 8/9 seen from both
// sides: the expert flies the classic exam clean, and the same pilot with
// the cable paid out during the traverse, so the cargo flies at bar
// height, hits the bars and fails on a lower score.
func TestCarelessRunFailsExam(t *testing.T) {
	fly := func(careless bool) fom.ScenarioState {
		t.Helper()
		fl, err := NewFlight(scenario.Classic(), SkillProfile{})
		if err != nil {
			t.Fatal(err)
		}
		var seat func(c int, in fom.ControlInput) fom.ControlInput
		if careless {
			// The engine judges after the seat, so Phase is the tick's
			// starting phase.
			seat = func(c int, in fom.ControlInput) fom.ControlInput {
				if fl.Engine.Phase() == fom.PhaseTraverse {
					in.HoistJoyY = mathx.Clamp(fl.States[c].CargoPos.Y-1.2, -1, 1)
				}
				return in
			}
		}
		for fl.SimTime < 600 && !fl.Done() {
			fl.TickWith(seat)
		}
		return fl.Engine.State()
	}
	clean, careless := fly(false), fly(true)
	if clean.Phase != fom.PhaseComplete || clean.Collisions != 0 {
		t.Errorf("clean run: %v with %d collisions, want complete with 0", clean.Phase, clean.Collisions)
	}
	if careless.Phase != fom.PhaseFailed || careless.Collisions == 0 {
		t.Errorf("careless run: %v with %d collisions, want failed with some", careless.Phase, careless.Collisions)
	}
	if careless.Score >= clean.Score {
		t.Errorf("careless score %.1f not below clean %.1f", careless.Score, clean.Score)
	}
	t.Logf("clean %.1f (%d collisions), careless %.1f (%d collisions)",
		clean.Score, clean.Collisions, careless.Score, careless.Collisions)
}

// TestAutopilotCompletesAdvancedCourse proves the harder shipped course
// (six bars, heavier cargo, tighter gates) is actually completable.
func TestAutopilotCompletesAdvancedCourse(t *testing.T) {
	spec := scenario.Advanced()
	fl, err := NewFlight(spec, SkillProfile{})
	if err != nil {
		t.Fatal(err)
	}
	for fl.SimTime < 600 && !fl.Done() {
		fl.Tick()
	}
	final := fl.Engine.State()
	if final.Phase != fom.PhaseComplete {
		t.Fatalf("advanced exam: phase=%v score=%.1f wp=%d/%d msg=%q after %.0f s",
			final.Phase, final.Score, final.Waypoint, len(spec.Course.Waypoints),
			final.Message, fl.SimTime)
	}
	if final.Collisions != 0 {
		t.Errorf("autopilot hit %d bars on the advanced course", final.Collisions)
	}
	t.Logf("advanced exam complete: %.1f points in %.1f s", final.Score, fl.SimTime)
}

// TestAutopilotIdleAndDone covers the trivial phases.
func TestAutopilotIdleAndDone(t *testing.T) {
	ap := ForCrane(scenario.Classic(), 0)
	in := ap.Control(fom.CraneState{}, fom.ScenarioState{Phase: fom.PhaseIdle}, 0.1)
	if !in.Ignition {
		t.Error("idle should keep ignition on")
	}
	in = ap.Control(fom.CraneState{}, fom.ScenarioState{Phase: fom.PhaseComplete}, 0.1)
	if in.Ignition {
		t.Error("complete should shut the engine off")
	}
}

// TestAutopilotDriveSteersTowardTarget checks the drive controller's
// steering sense without running the full exam.
func TestAutopilotDriveSteersTowardTarget(t *testing.T) {
	course := scenario.DefaultCourse()
	ap := ForCrane(scenario.Classic(), 0)
	// Carrier north-west of the target, facing north (away): must steer
	// hard to come about, with throttle applied.
	st := fom.CraneState{Position: mathx.V3(course.DriveTarget.X-50, 0, course.DriveTarget.Z-50)}
	in := ap.Control(st, fom.ScenarioState{Phase: fom.PhaseDriving}, 0.1)
	if in.Gear != 1 || in.Throttle <= 0 {
		t.Errorf("no forward drive: %+v", in)
	}
	if in.Steering == 0 {
		t.Error("no steering toward target")
	}
}
