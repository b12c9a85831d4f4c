package trace

import (
	"context"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/scenario"
)

// TestTandemBeamCompletes proves the flagship tandem lift end to end
// headless: two autopilots, one shared beam, both hooks gated. (The
// library acceptance test also covers it; this pins the tandem-specific
// invariants.)
func TestTandemBeamCompletes(t *testing.T) {
	spec := scenario.TandemBeam()
	res, err := RunContext(context.Background(), spec, 900)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Phase != fom.PhaseComplete {
		t.Fatalf("phase %v score %.1f (%s)", res.State.Phase, res.State.Score, res.State.Message)
	}
	if res.State.Collisions != 0 {
		t.Errorf("tandem pair struck %d bars", res.State.Collisions)
	}
	t.Logf("tandem beam: score %.1f in %.1f sim-seconds", res.State.Score, res.SimTime)
}

// TestTwinYardCompletes proves the staggered two-crane yard headless.
func TestTwinYardCompletes(t *testing.T) {
	res, err := RunContext(context.Background(), scenario.TwinYard(), 900)
	if err != nil {
		t.Fatal(err)
	}
	if res.State.Phase != fom.PhaseComplete {
		t.Fatalf("phase %v score %.1f (%s)", res.State.Phase, res.State.Score, res.State.Message)
	}
}

// TestForCraneWalksOwnSubgraph pins the crane assignment: autopilots
// resolve foreign-crane telemetry onto their own nodes.
func TestForCraneWalksOwnSubgraph(t *testing.T) {
	spec := scenario.TandemBeam()
	ap := ForCrane(spec, 1)
	if ap.Crane() != 1 {
		t.Fatalf("Crane() = %d", ap.Crane())
	}
	// Coarse-phase fallback (old scenario LP on the wire) lands on crane
	// 1's drive node, not crane 0's.
	scen := fom.ScenarioState{Phase: fom.PhaseDriving, PhaseIndex: fom.PhaseIndexUnknown, CraneID: 1}
	in := ap.Control(fom.CraneState{CraneID: 1}, scen, 0.1)
	if !in.Ignition {
		t.Error("fallback control lost ignition")
	}
	// A PhaseIndex pointing at another crane's node is clamped onto the
	// assigned crane's sub-graph instead of driving someone else's phase.
	scen = fom.ScenarioState{Phase: fom.PhaseLifting, PhaseIndex: 2 /* crane 0's lift */, CraneID: 1}
	in = ap.Control(fom.CraneState{CraneID: 1}, scen, 0.1)
	if !in.Ignition {
		t.Error("clamped control lost ignition")
	}
}

// TestTandemNoviceJitterRecovers is the sloppy-sweep recovery proof for
// the choreography reset: jittered novices fly the tandem beam across
// several seeds, and every run must reach a terminal verdict — a drop
// mid-carry now pulls both cursors back to the tandem lift gate together,
// so a fumbled run degrades its score instead of wedging the sweep on two
// disagreeing cursors.
func TestTandemNoviceJitterRecovers(t *testing.T) {
	spec := scenario.TandemBeam()
	p := SkillNovice()
	p.Jitter = 0.35
	for seed := int64(1); seed <= 4; seed++ {
		res, err := RunSkill(context.Background(), spec, 1800, p.Seeded(seed))
		if err != nil {
			t.Fatalf("seed %d never terminated: %v", seed, err)
		}
		if res.State.Phase != fom.PhaseComplete && res.State.Phase != fom.PhaseFailed {
			t.Fatalf("seed %d ended in %v", seed, res.State.Phase)
		}
		t.Logf("seed %d: %v score %.1f in %.0f sim-seconds",
			seed, res.State.Phase, res.State.Score, res.SimTime)
	}
}
