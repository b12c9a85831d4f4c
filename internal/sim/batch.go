package sim

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"time"

	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/trace"
)

// BatchConfig tunes a batch run.
type BatchConfig struct {
	// Base is the cluster template for every federation. Its LAN must be
	// nil (each run gets a private in-memory LAN) and its Scenario field
	// is ignored; Autopilot and AutoStart are forced on. Unused when
	// Headless is set.
	Base Config
	// Timeout bounds each run. This is the one rule, for both modes:
	//
	//   - Federation runs: a wall-clock cap on the run (default 120 s).
	//   - Headless runs: a simulation-time cap of Timeout's seconds —
	//     they finish in a fraction of real time, so a wall clock would
	//     be the wrong budget. Default: three par times, at least 900
	//     sim-seconds, from the scenario's own course.
	Timeout time.Duration
	// Headless skips the federation and couples dynamics, engine and
	// autopilot directly (trace.RunContext) — the fast path for smoke sweeps.
	Headless bool
	// Skill degrades every run's autopilots (reaction lag, overshoot,
	// widened slack); the zero value is the flawless expert. Sweeping the
	// presets over a scenario matrix yields realistic score spreads.
	Skill trace.SkillProfile
	// Log, when set, receives one structured record per run start and
	// finish (scenario, seed, score, wall_s); nil is silent.
	Log *slog.Logger
}

// logOf returns the configured logger or a discard sink, so the run paths
// log unconditionally.
func (c BatchConfig) logOf() *slog.Logger {
	if c.Log == nil {
		return slog.New(slog.DiscardHandler)
	}
	return c.Log
}

// DefaultParallel is how many runs execute at once on one host when the
// caller does not say: every core for headless runs (plain CPU-bound
// loops), a quarter of them, at least one, for federations — a full
// federation is eight busy virtual computers, so oversubscribing stalls
// the paced LP loops.
func DefaultParallel(headless bool) int {
	if headless {
		return runtime.NumCPU()
	}
	return max(1, runtime.NumCPU()/4)
}

// BatchResult is one scenario's outcome in a batch.
type BatchResult struct {
	Scenario string
	Title    string
	State    fom.ScenarioState
	Passed   bool
	Err      error
	Wall     time.Duration
	// Alarms counts the alarm lamps the run lit (safety alarms plus
	// collisions) — the instructor-side misconduct count surfaced into
	// the persisted dist.Record rows.
	Alarms uint32
}

// RunBatch executes one full federation per scenario spec, DefaultParallel
// at a time, each with seed 0 (see RunOne), and reports per-scenario
// outcomes in input order. This is the cluster-scale counterpart of
// trace.RunContext: every run boots the whole eight-computer COD —
// displays, sync server, dashboard, motion, instructor, sim PC — on its
// own in-memory LAN, drives the scenario with the autopilot, and waits for
// the terminal phase.
//
// Canceling ctx abandons the batch: queued runs never start and in-flight
// runs stop early; both report ctx's error in their BatchResult. The
// result slice always has one entry per spec.
func RunBatch(ctx context.Context, specs []scenario.Spec, cfg BatchConfig) []BatchResult {
	results := make([]BatchResult, len(specs))
	sem := make(chan struct{}, DefaultParallel(cfg.Headless))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			case <-ctx.Done():
				// No slot needed: RunOne reports the cancellation
				// without running anything.
			}
			results[i] = RunOne(ctx, specs[i], cfg, 0)
		}(i)
	}
	wg.Wait()
	return results
}

// RunOne executes one scenario to a verdict on the calling goroutine — a
// full federation, or the headless kernel when cfg.Headless — with seed
// picking the run's trainee when cfg.Skill carries Jitter
// (trace.SkillProfile.Seeded). It is the run RunBatch repeats. A ctx
// already canceled is reported in the result without booting anything.
func RunOne(ctx context.Context, spec scenario.Spec, cfg BatchConfig, seed int64) BatchResult {
	res := BatchResult{Scenario: spec.Name, Title: spec.Title}
	if res.Err = ctx.Err(); res.Err != nil {
		return res
	}
	log := cfg.logOf()
	log.Info("run started", "scenario", spec.Name, "seed", seed, "headless", cfg.Headless)
	start := time.Now()
	if cfg.Headless {
		runHeadless(ctx, spec, cfg, seed, &res)
	} else {
		runFederation(ctx, spec, cfg, seed, &res)
	}
	res.Wall = time.Since(start)
	log.Info("run finished", "scenario", res.Scenario, "seed", seed,
		"passed", res.Passed, "score", res.State.Score,
		"wall_s", res.Wall.Seconds(), "alarms", res.Alarms)
	return res
}

// runHeadless flies the spec without a federation, budgeted in simulation
// time (see BatchConfig.Timeout).
func runHeadless(ctx context.Context, spec scenario.Spec, cfg BatchConfig, seed int64, res *BatchResult) {
	maxSim := cfg.Timeout.Seconds()
	if maxSim <= 0 {
		maxSim = trace.DefaultBudget(spec)
	}
	r, err := trace.RunSkill(ctx, spec, maxSim, cfg.Skill.Seeded(seed))
	res.State = r.State
	// As on the federation path, a run that errs has not passed.
	res.Passed = r.Passed && err == nil
	res.Alarms = r.Alarms
	res.Err = err
}

// runFederation boots one federation for the spec and runs it to a
// verdict within the wall-clock Timeout.
func runFederation(ctx context.Context, spec scenario.Spec, cfg BatchConfig, seed int64, res *BatchResult) {
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 120 * time.Second
	}
	ccfg := cfg.Base
	ccfg.LAN = nil // private segment per federation
	ccfg.Scenario = &spec
	ccfg.Autopilot = true
	ccfg.AutoStart = true
	ccfg.Skill = cfg.Skill.Seeded(seed)

	cluster, err := New(ccfg)
	if err != nil {
		res.Err = fmt.Errorf("build: %w", err)
		return
	}
	defer cluster.Stop()
	if err := cluster.Start(); err != nil {
		res.Err = fmt.Errorf("start: %w", err)
		return
	}
	res.State, res.Err = cluster.WaitExamContext(ctx, timeout)
	res.Passed = res.Err == nil && res.State.Phase == fom.PhaseComplete
	res.Alarms = cluster.AlarmEvents()
}
