package sim

import (
	"context"
	"errors"
	"testing"
	"time"

	"codsim/internal/fom"
	"codsim/internal/scenario"
)

// TestBatchRunsScenariosConcurrently executes two different scenarios as
// full federations, DefaultParallel at a time (both at once from eight
// cores up), and checks each scenario's result.
func TestBatchRunsScenariosConcurrently(t *testing.T) {
	if testing.Short() {
		t.Skip("two full federation runs")
	}
	specs := []scenario.Spec{scenario.BlindLift(), scenario.Classic()}
	results := RunBatch(context.Background(), specs, BatchConfig{
		Base: Config{
			TimeScale: 15,
			Width:     96,
			Height:    72,
			Polygons:  400,
		},
		Timeout: 180 * time.Second,
	})
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Scenario != specs[i].Name {
			t.Errorf("result %d order: %q, want %q", i, r.Scenario, specs[i].Name)
		}
		if r.Err != nil {
			t.Errorf("%s: %v (phase %v, msg %q)", r.Scenario, r.Err, r.State.Phase, r.State.Message)
			continue
		}
		if !r.Passed || r.State.Phase != fom.PhaseComplete {
			t.Errorf("%s: phase=%v score=%.1f msg=%q", r.Scenario, r.State.Phase, r.State.Score, r.State.Message)
		}
	}
}

// TestBatchHeadless runs the whole library through the batch pool's
// headless path — no federations, sim-time budgets from each scenario's
// par time.
func TestBatchHeadless(t *testing.T) {
	specs := scenario.Library()
	results := RunBatch(context.Background(), specs, BatchConfig{Headless: true})
	if len(results) != len(specs) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if r.Err != nil || !r.Passed {
			t.Errorf("%s: passed=%v err=%v phase=%v score=%.1f",
				r.Scenario, r.Passed, r.Err, r.State.Phase, r.State.Score)
		}
	}
}

// TestBatchHeadlessTimeoutIsSimTimeCap pins the BatchConfig.Timeout rule
// for headless runs: the cap is simulation time, so an absurdly small
// Timeout must abort the scenario unfinished instead of being ignored.
func TestBatchHeadlessTimeoutIsSimTimeCap(t *testing.T) {
	specs := []scenario.Spec{scenario.Classic()}
	results := RunBatch(context.Background(), specs, BatchConfig{
		Headless: true,
		Timeout:  2 * time.Second, // 2 sim-seconds: not even enough to drive off
	})
	r := results[0]
	if r.Err == nil || r.Passed {
		t.Fatalf("2 sim-second budget produced a verdict: passed=%v err=%v", r.Passed, r.Err)
	}
	if r.State.Elapsed > 30 {
		t.Errorf("scenario ran %v sim-seconds past a 2 s budget", r.State.Elapsed)
	}
}

// TestBatchCancel proves a canceled context abandons both the queue and
// in-flight headless runs.
func TestBatchCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // canceled before the batch starts: nothing may run
	specs := scenario.Library()
	results := RunBatch(ctx, specs, BatchConfig{Headless: true})
	if len(results) != len(specs) {
		t.Fatalf("results = %d", len(results))
	}
	for _, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("%s: err = %v, want context.Canceled", r.Scenario, r.Err)
		}
		if r.Passed {
			t.Errorf("%s: passed after cancellation", r.Scenario)
		}
	}
}

// TestBatchScenarioValidationError surfaces a broken spec as a per-run
// error instead of a panic or hang.
func TestBatchScenarioValidationError(t *testing.T) {
	bad := scenario.Classic()
	bad.Phases = nil
	results := RunBatch(context.Background(), []scenario.Spec{bad}, BatchConfig{
		Base:    Config{TimeScale: 8, Width: 96, Height: 72, Polygons: 400},
		Timeout: 5 * time.Second,
	})
	if len(results) != 1 || results[0].Err == nil {
		t.Fatalf("results = %+v, want one error", results)
	}
}
