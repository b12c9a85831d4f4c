package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
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

// wireJob is job i of a campaign as a worker receives it: the spec after
// its MarshalSpec JSON round trip.
func wireJob(t *testing.T, i int, cand int64, spec scenario.Spec) Job {
	t.Helper()
	data, err := scenario.MarshalSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	sent, err := scenario.UnmarshalSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	return Job{ID: int64(i), Seed: cand, Spec: sent}
}

// roundTrip is rec after its JSON round trip.
func roundTrip(t *testing.T, rec Record) Record {
	t.Helper()
	b, err := marshalRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	var got Record
	if err := unmarshalRecord(b, &got); err != nil {
		t.Fatal(err)
	}
	return got
}

// matchesFlight fails unless rec carries what a fresh flight of spec
// gives on every field a verdict reads.
func matchesFlight(t *testing.T, pass string, rec Record, spec scenario.Spec) {
	t.Helper()
	fresh, err := trace.NewRunner().RunSkill(context.Background(), spec, trace.DefaultBudget(spec), trace.SkillProfile{})
	if err != nil {
		t.Fatalf("%s job %d (%s): fresh flight: %v", pass, rec.Job, spec.Name, err)
	}
	if rec.Err != "" || rec.Passed != fresh.Passed || rec.Score != fresh.State.Score ||
		rec.Phase != fresh.State.Phase.String() || rec.SimSec != fresh.State.Elapsed ||
		rec.Alarms != int64(fresh.Alarms) || rec.Scenario != fresh.Scenario {
		t.Fatalf("%s job %d (%s): record %+v, fresh flight %+v", pass, rec.Job, spec.Name, rec, fresh)
	}
}

// campaignStream is a cache-backed certified stream of a campaign.
func campaignStream(t *testing.T, seed int64, params gen.Params, cachePath string, prefetch bool) (*gen.Stream, *gen.Cache) {
	t.Helper()
	cache, err := gen.OpenCache(cachePath, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	stream := gen.NewStream(seed, params)
	stream.Parallel, stream.Prefetch, stream.Cache = 2, prefetch, cache
	return stream, cache
}

// TestHandOffMatchesFlight is the differential test behind trace's
// hand-off: every certified job of campaign-42x1000-8c425b59 (default
// params, default skill) crosses the wire as MarshalSpec JSON and runs
// through DefaultRunner. Cold, the job is answered by its own oracle
// dry-run; warm, by the answer its verdict-cache row holds in the file the
// cold pass wrote, except the audited rows' jobs, which fly. Each record,
// after the result's JSON round trip, must equal a fresh flight of the
// same spec on every field a verdict reads; cold, the hand-off must have
// answered every job, and warm every job but the audited ones, whose
// count is pinned. The same jobs with a jittered novice (-skill novice
// -jitter 0.3), each asked while its dry-run is still parked, must take
// nothing. Under the race detector it runs the first 32 jobs of the same
// stream.
func TestHandOffMatchesFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("1128 dry-runs and 4000 flights in -short")
	}
	const seed = 42
	count, audited := 1000, int64(31)
	params := gen.DefaultParams()
	if key := gen.Key(seed, count, params); key != "campaign-42x1000-8c425b59" {
		t.Fatalf("campaign key %s: the default params moved", key)
	}
	if raceEnabled {
		count, audited = 32, 2
	}
	ctx := context.Background()
	cachePath := filepath.Join(t.TempDir(), "verdicts.jsonl")
	expert := sim.BatchConfig{Headless: true}
	novice := sim.BatchConfig{Headless: true, Skill: trace.SkillNovice()}
	novice.Skill.Jitter = 0.3

	stream, cache := campaignStream(t, seed, params, cachePath, true)
	var expertTakes, noviceTakes int64
	for i := range count {
		spec, cand, err := stream.Next(ctx)
		if err != nil {
			t.Fatalf("cold job %d: %v", i, err)
		}
		job := wireJob(t, i, cand, spec)
		before := trace.HandOffs()
		DefaultRunner(ctx, job, novice)
		noviceTakes += trace.HandOffs() - before

		before = trace.HandOffs()
		rec := DefaultRunner(ctx, job, expert)
		expertTakes += trace.HandOffs() - before
		matchesFlight(t, "cold", roundTrip(t, rec), spec)
	}
	stream.Close()
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	if expertTakes != int64(count) {
		t.Errorf("%d of %d expert jobs taken from their dry-run, want all", expertTakes, count)
	}
	if noviceTakes != 0 {
		t.Errorf("%d of %d novice jobs took an expert dry-run, want 0", noviceTakes, count)
	}

	stream, cache = campaignStream(t, seed, params, cachePath, true)
	defer cache.Close()
	defer stream.Close()
	handOffs, audits := trace.HandOffs(), trace.Audits()
	for i := range count {
		spec, cand, err := stream.Next(ctx)
		if err != nil {
			t.Fatalf("warm job %d: %v", i, err)
		}
		matchesFlight(t, "warm", roundTrip(t, DefaultRunner(ctx, wireJob(t, i, cand, spec), expert)), spec)
	}
	if st := stream.Stats(); st.OracleRuns != 0 {
		t.Fatalf("warm pass flew %d dry-runs, want 0", st.OracleRuns)
	}
	answered, flown := trace.HandOffs()-handOffs, trace.Audits()-audits
	if flown != audited || answered != int64(count)-audited {
		t.Errorf("warm: %d jobs answered by their row and %d audited, want %d and %d", answered, flown, int64(count)-audited, audited)
	}
}

// TestHandOffStaleRow edits the score of two rows in a warm campaign's
// cache file: job 15's row, which is audited, and job 0's, which is not.
// The audited job flies, so its record carries the stale-row error that
// fails a strict campaign; the unaudited job is answered by its row, so
// its record carries the edited score — the limit of an audit fraction.
// No lookahead: each pass parks answers for its own jobs only, so the
// ring is empty when the test ends.
func TestHandOffStaleRow(t *testing.T) {
	const (
		seed, count        = 42, 16
		auditedJob, plain  = 15, 0
		auditedCand, delta = 17, 1.0
	)
	params := gen.DefaultParams()
	ctx := context.Background()
	cachePath := filepath.Join(t.TempDir(), "verdicts.jsonl")
	expert := sim.BatchConfig{Headless: true}
	run := func(pass string) ([]Record, []scenario.Spec) {
		stream, cache := campaignStream(t, seed, params, cachePath, false)
		defer cache.Close()
		recs, specs := make([]Record, count), make([]scenario.Spec, count)
		for i := range count {
			spec, cand, err := stream.Next(ctx)
			if err != nil {
				t.Fatalf("%s job %d: %v", pass, i, err)
			}
			recs[i], specs[i] = DefaultRunner(ctx, wireJob(t, i, cand, spec), expert), spec
		}
		return recs, specs
	}
	cold, specs := run("cold")
	if recs := cold; recs[auditedJob].Seed != auditedCand {
		t.Fatalf("job %d is candidate %d, want %d: the stream moved", auditedJob, recs[auditedJob].Seed, auditedCand)
	}

	blob, err := os.ReadFile(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	for _, job := range []int{plain, auditedJob} {
		hash, err := gen.SpecHash(specs[job])
		if err != nil {
			t.Fatal(err)
		}
		if audited := hash%32 == 0; audited != (job == auditedJob) {
			t.Fatalf("job %d audited = %v: the audit choice moved", job, audited)
		}
		edited := false
		for i, line := range lines {
			var row map[string]any
			if err := json.Unmarshal([]byte(line), &row); err != nil {
				t.Fatal(err)
			}
			if row["spec"] != fmt.Sprintf("%016x", hash) {
				continue
			}
			row["res"].(map[string]any)["score"] = cold[job].Score + delta
			b, err := json.Marshal(row)
			if err != nil {
				t.Fatal(err)
			}
			lines[i], edited = string(b), true
		}
		if !edited {
			t.Fatalf("no row for job %d", job)
		}
	}
	if err := os.WriteFile(cachePath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	handOffs, audits := trace.HandOffs(), trace.Audits()
	warm, _ := run("warm")
	if answered, flown := trace.HandOffs()-handOffs, trace.Audits()-audits; answered != count-1 || flown != 1 {
		t.Fatalf("warm: %d answered, %d audited, want %d and 1", answered, flown, count-1)
	}
	for i, rec := range warm {
		switch i {
		case auditedJob:
			if rec.Passed || !strings.Contains(rec.Err, fmt.Sprintf("(cand %d, spec ", auditedCand)) ||
				!strings.Contains(rec.Err, trace.ErrStaleAnswer.Error()) || rec.Score != cold[i].Score {
				t.Errorf("audited job %d: record %+v, want the flight's score %v and a stale-row error", i, rec, cold[i].Score)
			}
		case plain:
			if !rec.Passed || rec.Err != "" || rec.Score != cold[i].Score+delta {
				t.Errorf("unaudited job %d: record %+v, want the edited score %v", i, rec, cold[i].Score+delta)
			}
		default:
			if rec.Err != "" || rec.Score != cold[i].Score || rec.SimSec != cold[i].SimSec {
				t.Errorf("job %d: warm record %+v, cold %+v", i, rec, cold[i])
			}
		}
	}
}
