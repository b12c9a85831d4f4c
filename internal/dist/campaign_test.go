package dist

import (
	"context"
	"testing"

	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/sim"
	"codsim/internal/trace"
)

// streamSource feeds a bounded number of generated scenarios into a
// coordinator — the same adapter shape codbatch's -campaign mode uses.
type streamSource struct {
	s       *gen.Stream
	count   int
	emitted int
}

func (ss *streamSource) Next(ctx context.Context) (Job, bool, error) {
	if ss.emitted >= ss.count {
		return Job{}, false, nil
	}
	spec, cand, err := ss.s.Next(ctx)
	if err != nil {
		return Job{}, false, err
	}
	j := Job{ID: int64(ss.emitted), Seed: cand, Spec: spec}
	ss.emitted++
	return j, true, nil
}

// TestCampaignStreamMemLAN runs a generated campaign a quarter longer than
// the coordinator's dispatch window through it — jobs are pulled from the
// generator as results free slots, never materialized up front — and
// cross-checks every distributed verdict against a local sim.RunBatch of
// the same specs. The StaticOnly oracle keeps the stream cheap; the
// workers' DefaultRunner does the real flying. The pool's clock never
// moves: the test is about streaming, and under -race on a loaded core no
// claim expiry, death verdict or job timeout may come of a slow run.
func TestCampaignStreamMemLAN(t *testing.T) {
	if testing.Short() {
		t.Skip("80 headless runs in -short")
	}
	coord, ctx := startPool(t, eventFed(t), CoordinatorConfig{}, WorkerConfig{Slots: 2, Batch: sim.BatchConfig{Headless: true}}, "w1", "w2")

	const count = window + window/4
	stream := gen.NewStream(1234, gen.DefaultParams())
	stream.Oracle = gen.StaticOnly
	recs, err := coord.RunStream(ctx, &streamSource{s: stream, count: count})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if len(recs) != count {
		t.Fatalf("records = %d, want %d", len(recs), count)
	}

	// Rebuild the identical job list locally (same seed, same oracle) and
	// fly it in-process: every distributed verdict must match.
	replay := gen.NewStream(1234, gen.DefaultParams())
	replay.Oracle = gen.StaticOnly
	specs := make([]scenario.Spec, count)
	for i := range specs {
		spec, cand, err := replay.Next(ctx)
		if err != nil {
			t.Fatalf("replay emit %d: %v", i, err)
		}
		if recs[i].Seed != cand {
			t.Fatalf("job %d: dispatched candidate %d, replay candidate %d — stream not reproducible", i, recs[i].Seed, cand)
		}
		if recs[i].Scenario != spec.Name {
			t.Fatalf("job %d: dispatched %q, replay %q", i, recs[i].Scenario, spec.Name)
		}
		specs[i] = spec
	}
	// The StaticOnly stream admits some specs the expert cannot finish, so
	// the sweep carries a pass/fail mix — the verdicts (not just the
	// passes) must agree run for run.
	local := sim.RunBatch(ctx, specs, sim.BatchConfig{Headless: true})
	fails := 0
	for i, r := range recs {
		if r.Passed != local[i].Passed {
			t.Errorf("job %d (%s): dist passed=%v (err %q) local passed=%v (err %v)",
				i, r.Scenario, r.Passed, r.Err, local[i].Passed, local[i].Err)
		}
		if !r.Passed {
			fails++
		}
	}
	t.Logf("%d/%d generated jobs failed under the free oracle (verdicts all matched)", fails, count)
}

// TestHandOffMatchesFlight is the differential test behind trace's
// hand-off: every certified job of campaign-42x1000-8c425b59 (default
// params, default skill) crosses the wire as MarshalSpec JSON and runs
// through DefaultRunner, which answers it with its own oracle dry-run. Its
// record, after the result's JSON round trip, must equal a fresh flight of
// the same spec on every field a verdict reads, and the hand-off must have
// answered exactly every job. The same jobs with a jittered novice
// (-skill novice -jitter 0.3), each asked while its dry-run is still
// parked, must take nothing. Under the race detector it flies the first
// 32 jobs of the same stream.
func TestHandOffMatchesFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("1128 dry-runs and 3000 flights in -short")
	}
	const seed = 42
	count := 1000
	params := gen.DefaultParams()
	if key := gen.Key(seed, count, params); key != "campaign-42x1000-8c425b59" {
		t.Fatalf("campaign key %s: the default params moved", key)
	}
	if raceEnabled {
		count = 32
	}
	ctx := context.Background()
	stream := gen.NewStream(seed, params)
	stream.Parallel = 2
	stream.Prefetch = true
	defer stream.Close()
	expert := sim.BatchConfig{Headless: true}
	novice := sim.BatchConfig{Headless: true, Skill: trace.SkillNovice()}
	novice.Skill.Jitter = 0.3

	var expertTakes, noviceTakes int64
	for i := range count {
		spec, cand, err := stream.Next(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		data, err := scenario.MarshalSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		sent, err := scenario.UnmarshalSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		job := Job{ID: int64(i), Seed: cand, Spec: sent}

		before := trace.HandOffs()
		DefaultRunner(ctx, job, novice)
		noviceTakes += trace.HandOffs() - before

		before = trace.HandOffs()
		rec := DefaultRunner(ctx, job, expert)
		expertTakes += trace.HandOffs() - before
		b, err := marshalRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		var got Record
		if err := unmarshalRecord(b, &got); err != nil {
			t.Fatal(err)
		}

		fresh, err := trace.NewRunner().RunSkill(ctx, spec, trace.DefaultBudget(spec), trace.SkillProfile{})
		if err != nil {
			t.Fatalf("job %d (%s): fresh flight: %v", i, spec.Name, err)
		}
		if got.Err != "" || got.Passed != fresh.Passed || got.Score != fresh.State.Score ||
			got.Phase != fresh.State.Phase.String() || got.SimSec != fresh.State.Elapsed ||
			got.Alarms != int64(fresh.Alarms) {
			t.Fatalf("job %d (%s): handed-off record %+v, fresh flight %+v", i, spec.Name, got, fresh)
		}
	}
	if expertTakes != int64(count) {
		t.Errorf("%d of %d expert jobs taken from their dry-run, want all", expertTakes, count)
	}
	if noviceTakes != 0 {
		t.Errorf("%d of %d novice jobs took an expert dry-run, want 0", noviceTakes, count)
	}
}
