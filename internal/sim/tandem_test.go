package sim

import (
	"context"
	"testing"
	"time"

	"codsim/internal/fom"
	"codsim/internal/scenario"
)

// TestClusterTandemCompletes runs the tandem beam lift over the real
// federation: two dynamics LPs on one shared cargo world, two autopilot
// LPs, two motion controllers — every carrier's traffic multiplexed over
// the same FOM classes by CraneID. Run with -race this doubles as the
// concurrency gate on the shared dynamics.World.
func TestClusterTandemCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full tandem federation run")
	}
	spec := scenario.TandemBeam()
	c, err := New(Config{
		CB:        fastCB(),
		TimeScale: 15,
		Width:     96,
		Height:    72,
		Polygons:  600,
		Scenario:  &spec,
		Autopilot: true,
		AutoStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	defer c.Stop()

	final, err := c.WaitExamContext(context.Background(), 180*time.Second)
	if err != nil {
		t.Fatalf("WaitExam: %v (phase %v, msg %q)", err, final.Phase, final.Message)
	}
	if final.Phase != fom.PhaseComplete {
		t.Fatalf("tandem phase = %v, score %.1f, msg %q", final.Phase, final.Score, final.Message)
	}
	if final.Score < 60 {
		t.Errorf("score = %v", final.Score)
	}
	sum := c.Summary()
	if sum.ServerSwaps == 0 {
		t.Error("no display swaps during the tandem lift")
	}
	// Both carriers must have published: the sim PC hosts two dynamics
	// LPs, so its update counter dwarfs a single-crane run's.
	if got := c.Backbone(NodeSim).Stats().UpdatesSent.Value(); got == 0 {
		t.Error("sim-pc published nothing")
	}
	sameVerdictHeadless(t, spec, final)
	t.Logf("tandem over COD: score=%.1f elapsed=%.1fs alarms=%d",
		final.Score, final.Elapsed, c.AlarmEvents())
}

// TestBatchTandemHeadless pushes both multi-crane scenarios through
// sim.RunBatch exactly like a sweep would — the acceptance path for the
// batch/dist machinery running tandem work unchanged.
func TestBatchTandemHeadless(t *testing.T) {
	specs := []scenario.Spec{scenario.TandemBeam(), scenario.TwinYard()}
	results := RunBatch(t.Context(), specs, BatchConfig{Headless: true})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Scenario, r.Err)
		}
		if !r.Passed {
			t.Errorf("%s: phase %v score %.1f (%s)", r.Scenario, r.State.Phase, r.State.Score, r.State.Message)
		}
	}
}
