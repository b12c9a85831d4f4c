package trace

import (
	"testing"

	"codsim/internal/fom"
	"codsim/internal/scenario"
)

// TestRecordedExamReplaysIdentically records the autopilot's control frame
// of every tick of a live exam and replays them, tick by tick, into a
// completely fresh flight: because the physics is deterministic
// fixed-step, the replay must reproduce the same final phase, score and
// collision count — the property that makes a run's (spec, seed, config)
// a reviewable replay.
func TestRecordedExamReplaysIdentically(t *testing.T) {
	// fly runs a fresh classic exam with seat on the controls.
	fly := func(seat func(tick int, in fom.ControlInput) fom.ControlInput) *Flight {
		t.Helper()
		fl, err := NewFlight(scenario.Classic(), SkillProfile{})
		if err != nil {
			t.Fatal(err)
		}
		for fl.SimTime < 600 && !fl.Done() {
			fl.TickWith(func(_ int, in fom.ControlInput) fom.ControlInput { return seat(fl.Ticks, in) })
		}
		return fl
	}

	// --- Live run with recording: one frame a tick. ---
	var rec []fom.ControlInput
	live := fly(func(_ int, in fom.ControlInput) fom.ControlInput {
		rec = append(rec, in)
		return in
	})
	liveFinal := live.Engine.State()
	if liveFinal.Phase != fom.PhaseComplete {
		t.Fatalf("live run did not complete: %v", liveFinal.Phase)
	}
	t.Logf("recorded %d control frames over %.1f s", len(rec), live.SimTime)

	// --- Replay into a fresh world: the recorded frame replaces the pilot's. ---
	replay := fly(func(tick int, _ fom.ControlInput) fom.ControlInput { return rec[tick] })
	replayFinal := replay.Engine.State()

	if replayFinal.Phase != liveFinal.Phase {
		t.Errorf("replay phase = %v, live = %v", replayFinal.Phase, liveFinal.Phase)
	}
	if replayFinal.Score != liveFinal.Score {
		t.Errorf("replay score = %v, live = %v", replayFinal.Score, liveFinal.Score)
	}
	if replayFinal.Collisions != liveFinal.Collisions {
		t.Errorf("replay collisions = %v, live = %v", replayFinal.Collisions, liveFinal.Collisions)
	}
	// The crane must end in the same place too, not just the same score.
	if liveState, replayState := live.States[0], replay.States[0]; liveState.Position.Dist(replayState.Position) > 1e-6 {
		t.Errorf("replay position %v diverged from live %v",
			replayState.Position, liveState.Position)
	}
}
