package trace

import (
	"bytes"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/scenario"
)

// TestRecordedExamReplaysIdentically records the autopilot's control frames
// during a live exam, serializes the trace, reads it back, and replays it
// into a completely fresh simulation: because the physics is deterministic
// fixed-step, the replay must reproduce the same final phase, score and
// collision count — the property that makes recorded training sessions
// reviewable.
func TestRecordedExamReplaysIdentically(t *testing.T) {
	// fly runs a fresh classic exam with seat on the controls.
	fly := func(seat func(simT float64, in fom.ControlInput) fom.ControlInput) *Flight {
		t.Helper()
		fl, err := NewFlight(scenario.Classic(), SkillProfile{})
		if err != nil {
			t.Fatal(err)
		}
		for fl.SimTime < 600 && !fl.Done() {
			fl.TickWith(func(_ int, in fom.ControlInput) fom.ControlInput { return seat(fl.SimTime, in) })
		}
		return fl
	}

	// --- Live run with recording. ---
	var rec Recorder
	live := fly(func(simT float64, in fom.ControlInput) fom.ControlInput {
		rec.Record(simT, in)
		return in
	})
	liveFinal := live.Engine.State()
	if liveFinal.Phase != fom.PhaseComplete {
		t.Fatalf("live run did not complete: %v", liveFinal.Phase)
	}

	// --- Serialize and reload. ---
	var buf bytes.Buffer
	if err := Write(&buf, rec.Trace()); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty recorded trace")
	}
	t.Logf("recorded %d control samples over %.1f s", tr.Len(), tr.Duration())

	// --- Replay into a fresh world: the recorded frame replaces the pilot's. ---
	replay := fly(func(simT float64, _ fom.ControlInput) fom.ControlInput { return tr.At(simT) })
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
