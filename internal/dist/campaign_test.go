package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
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
	specs   []scenario.Spec // what it emitted, in job order
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
	ss.specs = append(ss.specs, spec)
	return j, true, nil
}

// TestCampaignStreamMemLAN runs a generated campaign a quarter longer than
// the coordinator's dispatch window through it — jobs are pulled from the
// generator as results free slots, never materialized up front — and
// cross-checks every distributed verdict against a local sim.RunBatch of
// the same specs. The StaticOnly oracle keeps the stream cheap; the
// workers' DefaultRunner does the real flying. The pool's clock never
// moves: the test is about streaming, and under -race on a loaded core no
// lost-grant or death verdict or job timeout may come of a slow run.
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

// flights is a counting Runner: it notes every job a worker flies, then
// flies it through DefaultRunner.
type flights struct {
	mu   sync.Mutex
	jobs []int64
}

func (f *flights) run(ctx context.Context, job Job, cfg sim.BatchConfig) Record {
	f.mu.Lock()
	f.jobs = append(f.jobs, job.ID)
	f.mu.Unlock()
	return DefaultRunner(ctx, job, cfg)
}

// flown lists the jobs flown so far, in ID order.
func (f *flights) flown() []int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Sorted(slices.Values(f.jobs))
}

// campaignPass is one pass of a certified campaign through a coordinator:
// its records and specs in job order, the coordinator's answered and
// audited counts, the jobs its workers flew and the stream's tallies.
type campaignPass struct {
	recs              []Record
	specs             []scenario.Spec
	answered, audited int64
	flown             []int64
	stats             gen.Stats
}

// runCampaign streams count jobs of the seed's campaign, certified with
// two prefetching lanes against the verdict cache at cachePath, through a
// coordinator and one two-slot worker flying batch. Coordinator and worker
// sit on nodes of their own, each with its own backbone, and meet over a
// MemLAN: what the worker learns of a job is the grant it receives.
func runCampaign(t *testing.T, seed int64, params gen.Params, cachePath string, count int, batch sim.BatchConfig) campaignPass {
	t.Helper()
	var f flights
	coord, ctx := startPool(t, eventFed(t), CoordinatorConfig{}, WorkerConfig{Slots: 2, Batch: batch, Run: f.run}, "w1")
	cache, err := gen.OpenCache(cachePath, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	stream := gen.NewStream(seed, params)
	stream.Parallel, stream.Prefetch, stream.Cache = 2, true, cache
	src := &streamSource{s: stream, count: count}
	recs, err := coord.RunStream(ctx, src)
	stream.Close()
	if cerr := cache.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if len(recs) != count {
		t.Fatalf("%d records for %d jobs", len(recs), count)
	}
	p := campaignPass{recs: recs, specs: src.specs, flown: f.flown(), stats: stream.Stats()}
	p.answered, p.audited = coord.Answered()
	return p
}

// auditedJobs lists the jobs whose verdict-cache row is audited.
func auditedJobs(t *testing.T, specs []scenario.Spec) []int64 {
	t.Helper()
	var jobs []int64
	for i, spec := range specs {
		hash, err := gen.SpecHash(spec)
		if err != nil {
			t.Fatal(err)
		}
		if hash%32 == 0 {
			jobs = append(jobs, int64(i))
		}
	}
	return jobs
}

// TestHandOffMatchesFlight is the differential test behind answering a
// certified job at the coordinator: every certified job of
// campaign-42x1000-8c425b59 (default params, default skill) streams
// through a coordinator. Cold, each job is answered by its own oracle
// dry-run; warm, by the answer its verdict-cache row holds in the file
// the cold pass wrote, except the audited rows' jobs, which the worker
// flies. Each record, after its JSON round trip, must equal a fresh
// flight of the same spec on every field a verdict reads; cold, every job
// must have been answered, and warm every job but the audited ones, which
// alone are flown and whose count is pinned. A pool flying a jittered
// novice (-skill novice -jitter 0.3) must be answered nothing: each of a
// window of cold jobs is pulled while its expert dry-run is parked, and
// flies. Under the race detector it runs the first 32 jobs.
func TestHandOffMatchesFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("about 1200 dry-runs and 2100 flights in -short")
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
	cachePath := filepath.Join(t.TempDir(), "verdicts.jsonl")
	expert := sim.BatchConfig{Headless: true}

	cold := runCampaign(t, seed, params, cachePath, count, expert)
	for i, rec := range cold.recs {
		matchesFlight(t, "cold", roundTrip(t, rec), cold.specs[i])
	}
	if cold.answered != int64(count) || cold.audited != 0 || len(cold.flown) != 0 {
		t.Errorf("cold: %d jobs answered, %d audited, %d flown; want all %d answered", cold.answered, cold.audited, len(cold.flown), count)
	}

	warm := runCampaign(t, seed, params, cachePath, count, expert)
	if warm.stats.OracleRuns != 0 {
		t.Fatalf("warm pass flew %d dry-runs, want 0", warm.stats.OracleRuns)
	}
	for i, rec := range warm.recs {
		matchesFlight(t, "warm", roundTrip(t, rec), warm.specs[i])
	}
	if warm.audited != audited || warm.answered != int64(count)-audited {
		t.Errorf("warm: %d jobs answered by their row and %d audited, want %d and %d", warm.answered, warm.audited, int64(count)-audited, audited)
	}
	if want := auditedJobs(t, warm.specs); !slices.Equal(warm.flown, want) {
		t.Errorf("warm: the worker flew jobs %v, want the audited %v", warm.flown, want)
	}

	novice := sim.BatchConfig{Headless: true, Skill: trace.SkillNovice()}
	novice.Skill.Jitter = 0.3
	n := min(count, window)
	nov := runCampaign(t, seed, params, filepath.Join(t.TempDir(), "novice.jsonl"), n, novice)
	if nov.answered != 0 || nov.audited != 0 || len(nov.flown) != n {
		t.Errorf("novice: %d jobs answered, %d audited, %d of %d flown; want every job flown", nov.answered, nov.audited, len(nov.flown), n)
	}
}

// TestHandOffAuditFlies runs a warm campaign through a coordinator and a
// worker on separate backbones: the coordinator answers every unaudited
// job from its verdict-cache row, exactly, and the worker flies the
// audited job alone, whose flight agrees with its row.
func TestHandOffAuditFlies(t *testing.T) {
	const seed, count, auditedJob = 42, 16, 15
	params := gen.DefaultParams()
	cachePath := filepath.Join(t.TempDir(), "verdicts.jsonl")
	expert := sim.BatchConfig{Headless: true}
	cold := runCampaign(t, seed, params, cachePath, count, expert)
	if cold.answered != count || len(cold.flown) != 0 {
		t.Fatalf("cold: %d answered, flew %v; want all %d answered", cold.answered, cold.flown, count)
	}
	warm := runCampaign(t, seed, params, cachePath, count, expert)
	if warm.answered != count-1 || warm.audited != 1 {
		t.Fatalf("warm: %d answered, %d audited, want %d and 1", warm.answered, warm.audited, count-1)
	}
	if !slices.Equal(warm.flown, []int64{auditedJob}) {
		t.Fatalf("warm: the worker flew jobs %v, want only the audited job %d", warm.flown, auditedJob)
	}
	for i, rec := range warm.recs {
		want := cold.recs[i]
		if !rec.Passed || rec.Err != "" || rec.Score != want.Score || rec.Phase != want.Phase || rec.SimSec != want.SimSec || rec.Alarms != want.Alarms {
			t.Errorf("job %d: warm record %+v, cold %+v", i, rec, want)
		}
		if flew := i == auditedJob; flew != (rec.Worker == "w1") || flew != (rec.Attempt == 1) {
			t.Errorf("job %d: record from worker %q, attempt %d", i, rec.Worker, rec.Attempt)
		}
	}
}

// TestHandOffStaleRow edits the score of two rows in a warm campaign's
// cache file: job 15's row, which is audited, and job 0's, which is not.
// The audited job flies, and the coordinator fails its record with the
// stale-row error that fails a strict campaign; the unaudited job is
// answered by its row, so its record carries the edited score — the limit
// of an audit fraction.
func TestHandOffStaleRow(t *testing.T) {
	const (
		seed, count        = 42, 16
		auditedJob, plain  = 15, 0
		auditedCand, delta = 17, 1.0
	)
	params := gen.DefaultParams()
	cachePath := filepath.Join(t.TempDir(), "verdicts.jsonl")
	expert := sim.BatchConfig{Headless: true}
	cold := runCampaign(t, seed, params, cachePath, count, expert)
	if rec := cold.recs[auditedJob]; rec.Seed != auditedCand {
		t.Fatalf("job %d is candidate %d, want %d: the stream moved", auditedJob, rec.Seed, auditedCand)
	}
	for _, job := range []int{plain, auditedJob} {
		if audited := slices.Contains(auditedJobs(t, cold.specs), int64(job)); audited != (job == auditedJob) {
			t.Fatalf("job %d audited = %v: the audit choice moved", job, audited)
		}
		editRowScore(t, cachePath, cold.specs[job], cold.recs[job].Score+delta)
	}

	warm := runCampaign(t, seed, params, cachePath, count, expert)
	if warm.answered != count-1 || warm.audited != 1 {
		t.Fatalf("warm: %d answered, %d audited, want %d and 1", warm.answered, warm.audited, count-1)
	}
	for i, rec := range warm.recs {
		switch i {
		case auditedJob:
			if rec.Passed || !strings.Contains(rec.Err, fmt.Sprintf("(cand %d, spec ", auditedCand)) ||
				!strings.Contains(rec.Err, trace.ErrStaleAnswer.Error()) || rec.Score != cold.recs[i].Score {
				t.Errorf("audited job %d: record %+v, want the flight's score %v and a stale-row error", i, rec, cold.recs[i].Score)
			}
		case plain:
			if !rec.Passed || rec.Err != "" || rec.Score != cold.recs[i].Score+delta {
				t.Errorf("unaudited job %d: record %+v, want the edited score %v", i, rec, cold.recs[i].Score+delta)
			}
		default:
			if rec.Err != "" || rec.Score != cold.recs[i].Score || rec.SimSec != cold.recs[i].SimSec {
				t.Errorf("job %d: warm record %+v, cold %+v", i, rec, cold.recs[i])
			}
		}
	}
}

// editRowScore sets the score of spec's answer in the verdict cache at
// path.
func editRowScore(t *testing.T, path string, spec scenario.Spec, score float64) {
	t.Helper()
	hash, err := gen.SpecHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	edited := false
	for i, line := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		if row["spec"] != fmt.Sprintf("%016x", hash) {
			continue
		}
		row["res"].(map[string]any)["score"] = score
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		lines[i], edited = string(b), true
	}
	if !edited {
		t.Fatalf("no row for %s", spec.Name)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// Workers that declare different run configs fly different exams, so the
// coordinator answers none of their jobs — each flies, though its dry-run
// is parked — and warns once, naming every worker with its config.
func TestRunConfigDisagreementFliesEveryJob(t *testing.T) {
	const seed, count = 42, 8
	var f flights
	fed := eventFed(t)
	startWorker(t, fed, "w1", WorkerConfig{Slots: 2, Batch: sim.BatchConfig{Headless: true}, Run: f.run})
	startWorker(t, fed, "w2", WorkerConfig{Slots: 2, Batch: sim.BatchConfig{Headless: true, Skill: trace.SkillNovice()}, Run: f.run})
	var logged bytes.Buffer
	coord := eventCoordinator(t, fed, "coord-node", CoordinatorConfig{Log: slog.New(slog.NewTextHandler(&logged, nil))})
	ctx := joinCtx(t)
	if err := coord.WaitWorkers(ctx, []string{"w1", "w2"}); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}
	stream := gen.NewStream(seed, gen.DefaultParams())
	defer stream.Close()
	stream.Parallel, stream.Prefetch = 2, true
	recs, err := coord.RunStream(ctx, &streamSource{s: stream, count: count})
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if len(recs) != count {
		t.Fatalf("%d records for %d jobs", len(recs), count)
	}
	if answered, audited := coord.Answered(); answered != 0 || audited != 0 || len(f.flown()) != count {
		t.Fatalf("%d answered, %d audited, %d of %d flown; want every job flown", answered, audited, len(f.flown()), count)
	}
	log := logged.String()
	if n := strings.Count(log, "workers fly different run configs"); n != 1 {
		t.Fatalf("warned %d times, want once:\n%s", n, log)
	}
	novice := trace.SkillNovice()
	for _, want := range []string{
		"w1: headless, skill lag 0 overshoot 0 slack 0 jitter 0, budget default",
		fmt.Sprintf("w2: headless, skill lag %g overshoot %g slack %g jitter 0, budget default", novice.ReactionLag, novice.Overshoot, novice.SlackBand),
	} {
		if !strings.Contains(log, want) {
			t.Errorf("the warning does not name %q:\n%s", want, log)
		}
	}
}
