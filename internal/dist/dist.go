// Package dist shards scenario batches across worker hosts over the
// Communication Backbone, making the paper's cluster-of-desktops story
// real at the batch layer: one coordinator process owns a work list of
// scenario jobs, N worker processes each run their share through
// sim.RunOne, and every exchange rides typed cod channels on a shared
// LAN segment (UDPLAN across processes, MemLAN inside tests).
//
// # Protocol
//
// Four object classes carry the whole protocol:
//
//	dist.Grant      coordinator → workers   a job, its spec and the worker that runs it
//	dist.Result     worker → coordinator    the finished job's Record (JSON)
//	dist.Ack        coordinator → workers   receipt of a job's Record
//	dist.Heartbeat  worker → coordinator    liveness, slot occupancy, run config
//
// The dispatch and result channels (dist.Grant, dist.Result, dist.Ack)
// declare the backbone's Reliable delivery policy: each publisher holds a
// credit window per subscriber, so a saturated peer stalls the sender
// instead of a mailbox shedding distinct protocol messages. dist.Heartbeat
// declares LatestValue — each worker is its own virtual channel, so
// conflation keeps exactly the newest beat per worker. The window covers
// slow-consumer loss; the ack/re-send loop below stays for link-churn
// loss, which no window can see.
//
// Dispatch is push-based, and a worker's slots are counted from its own
// heartbeats. Every beat declares the worker's slots, its runs (Busy,
// of any sweep) and the jobs of its sweep it holds (Working). A live
// worker's free slots are its declared slots, less the Busy of its last
// beat, less the grants of this sweep to it that the beat does not list
// yet. On every pass the coordinator walks the pending jobs in load order
// and grants each to the live worker with the most free slots, ties to the
// first name, until no live worker has one; the grant carries the job's
// seed, spec and span. A worker runs what it is granted, at once. Every
// worker hears every grant and ignores those naming another. A worker
// beats whenever a run ends, after sending its record, so a finished
// run's slot takes the next job when that beat arrives, whichever sweep
// the run was of, and a sweep runs first in, first out. A run the
// coordinator stopped waiting for (re-dispatched from a live worker past
// JobTimeout, or recorded from another worker first) holds its slot in
// its worker's beats until it ends. One limit: a grant counts on its own
// only until its grantee's first beat lists it, so a run moved away
// before its grantee has beaten once (a JobTimeout shorter than the
// worker's Heartbeat) goes uncounted until that beat.
//
// # Readiness and joining
//
// A pool is ready when its channels are, and every step of becoming ready
// is an event of the backbone's (cb's package doc has the protocol), not a
// period of this package's:
//
//   - A worker beats the moment its heartbeat publication gains a
//     channel — a coordinator's subscription matched — and retries a
//     record it could not route when the result publication gains one.
//     Its Heartbeat period is for a coordinator that stopped listening
//     without a word.
//   - WaitWorkers returns when every named worker has beaten and the
//     coordinator's grant and ack publications each reach that many
//     workers: a few round trips after the last of them was built,
//     whichever side was built first.
//   - A worker is granted work from its first beat. When pubGrant gains a
//     channel — a sweep started before its pool, a worker joining
//     mid-sweep — the coordinator sends every standing grant again, since
//     a grant may have gone out before the grantee could hear it. Grants
//     are idempotent for the workers that had them.
//
// The coordinator's bookkeeping tick (checkPeriod, 250 ms) finds dead
// workers and lost grants; nothing is dispatched by a period. A granted
// job is re-dispatched — granted again with the next attempt number —
// when its worker misses heartbeats for deadAfter (3 s), when the worker's
// beats still omit it two ticks after it was granted (the grant was lost),
// or when the job outlives JobTimeout; after maxAttempts (3) dispatches it
// is recorded as failed. A grant for a job the worker has finished, at a
// newer attempt, replays its cached Record. Results ride at-least-once
// delivery: the worker re-sends a finished job's Record until the
// coordinator acknowledges it on dist.Ack, because the backbone tears
// down virtual channels on link churn and a frame written just before a
// teardown is gone without either side erroring. The coordinator dedups:
// the first Record per job wins, stale attempts are accepted (the work
// is identical), duplicates are dropped and re-acked.
//
// Job payloads ship the scenario itself as scenario.MarshalSpec JSON, so
// a worker host needs no scenario library — the sweep's spec files never
// leave the coordinator.
//
// The work list itself can be incremental: Coordinator.RunStream pulls
// jobs from a JobSource and keeps at most window (64) of them in flight,
// so a procedural campaign (scenario/gen via codbatch -campaign) streams
// thousands of generated jobs through the sweep without materializing
// them up front. Run is RunStream over a
// materialized slice.
//
// # Answered jobs
//
// A certified campaign job may already have its answer: the expert run
// gen's certification lane parked for it (trace.Park), the one producer
// of answers — the oracle's dry-run cold, the verdict-cache row's stored
// result warm; the dry-run itself (trace.Completable) only reports. The coordinator's feeder takes
// it (trace.Take) by the spec bytes it marshals for the grant anyway, and
// the job is finished at load, with a Record made from the answer and no
// grant, run or ack, when the answer stands for
// what the pool would fly. Every heartbeat declares its worker's run
// config — headless or not, the trainee's skill profile, the headless
// sim-time budget — and the answer stands when every live worker declares
// the same one and, under it, would repeat the answered run tick for tick
// (trace.Answer.Stands: headless, the expert without jitter, a budget at
// least the answer's). WaitWorkers has heard every beat before the first
// job. Workers that declare different configs fly different exams: then
// every job flies and the sweep logs a warning once, naming each worker
// with its config. An audited answer (one verdict-cache row in 32) is
// dispatched as usual, and the coordinator fails the Record that comes
// back, with trace.ErrStaleAnswer naming the row, unless it carries the
// answer's scenario, verdict, score, phase, sim-seconds and alarms.
// Coordinator.Answered counts both kinds per sweep. A worker never looks
// for an answer: it flies every job it is granted.
//
// Every run persists as one JSON-lines Record (scenario, seed, score,
// phase, sim/wall time, worker); Report aggregates pass rate and
// p50/p90/p99 percentiles, and Compare diffs two result files for
// regressions. cmd/codbatch wires the whole thing into -serve /
// -coordinator / -out / -compare flags.
//
// # Observability
//
// Both sides log through log/slog with structured fields (sweep, job,
// worker, attempt, span) — CoordinatorConfig.Log / WorkerConfig.Log.
// Each job carries a trace-span ID minted at load and threaded through
// its grant and the returned Record, with phase latencies
// (queue, dispatch, run, ack) recorded into an optional obs.Spans
// histogram — each phase is timed on a single machine's clock, so skew
// between hosts never distorts it.
// Coordinator.Sample and Worker.Sample expose live dispatch state for
// the obs plane's codsim_dist_* gauges, read when /metrics is scraped,
// among them the coordinator's grant publications (against its
// attempts: one each, unless grants are being lost and re-sent).
package dist

import (
	"fmt"

	"codsim/internal/scenario"
	"codsim/internal/sim"
	"codsim/internal/trace"
)

// Object classes of the dist protocol.
const (
	ClassGrant     = "dist.Grant"
	ClassResult    = "dist.Result"
	ClassAck       = "dist.Ack"
	ClassHeartbeat = "dist.Heartbeat"
)

// coordinatorLP is the coordinator's logical-process name on its node.
const coordinatorLP = "coordinator"

// Job is one unit of distributable work: a scenario to run once.
type Job struct {
	// ID is unique within the sweep. Seed tags which repeat of the sweep
	// the job belongs to (or, in a campaign, which generator candidate),
	// and is carried into the persisted Record; with ID it makes the
	// job's SkillSeed, the trainee a jittered skill profile flies (see
	// DefaultRunner).
	ID   int64
	Seed int64
	Spec scenario.Spec
	// Span is the job's trace span ID, minted by the coordinator at
	// load and threaded through to the worker and its Record so log
	// lines and phase-latency observations join on one key. Empty until
	// a coordinator dispatches the job.
	Span string
}

// JobsFor expands a spec selection into repeat sweeps of jobs with stable
// IDs and per-repeat seeds: job i of repeat r runs specs[i] with seed r+1.
func JobsFor(specs []scenario.Spec, repeat int) []Job {
	if repeat < 1 {
		repeat = 1
	}
	jobs := make([]Job, 0, len(specs)*repeat)
	for r := 0; r < repeat; r++ {
		for _, s := range specs {
			jobs = append(jobs, Job{
				ID:   int64(len(jobs)),
				Seed: int64(r + 1),
				Spec: s,
			})
		}
	}
	return jobs
}

// The wire messages. Field order is the codec contract (cod assigns
// attribute IDs positionally), so reordering fields here is a protocol
// break between mixed coordinator/worker builds.

// jobGrant assigns a job to exactly one worker and carries what the worker
// needs to run it. Every worker hears it; only the named one acts on it.
// Seed, Spec and Span ride at the end: appended fields keep positional
// attribute IDs stable for the fields older builds know.
type jobGrant struct {
	Sweep   int64
	Job     int64
	Attempt int64
	Worker  string
	Seed    int64
	Spec    []byte
	Span    string
}

// jobResult carries the finished job's Record as JSON.
type jobResult struct {
	Sweep   int64
	Job     int64
	Attempt int64
	Worker  string
	Record  []byte
}

// jobAck confirms the coordinator recorded (or already had) a job's
// Record, stopping the worker's re-sends.
type jobAck struct {
	Sweep int64
	Job   int64
}

// heartbeat is a worker's liveness beacon, sent on its period and whenever
// a run ends. Sweep is the sweep of the last grant the worker took, and
// Busy every run on its slots, of any sweep. Working lists the jobs of
// Sweep the worker was granted and still remembers (running, or finished
// and unacknowledged): a grant it lists counts in Busy while its run
// lasts, not on its own, and a grant the beats of a live grantee never list never reached
// it, so the coordinator re-dispatches it far sooner than JobTimeout.
//
// The fields after Working declare how the worker flies its jobs (its
// WorkerConfig.Batch): headless or not, the trainee's skill profile, and
// the headless sim-time budget in seconds (0: each spec's
// trace.DefaultBudget). The coordinator answers a job from its
// certification only when every live worker would fly exactly the run the
// answer stands for. They ride at the end, like jobGrant's Spec.
type heartbeat struct {
	Worker      string
	Sweep       int64
	Slots       int64
	Busy        int64
	Working     []int64
	Headless    bool
	ReactionLag float64
	Overshoot   float64
	SlackBand   float64
	Jitter      float64
	Budget      float64
}

// runConfig is how a worker flies its jobs, as its heartbeat declares it.
type runConfig struct {
	headless bool
	skill    trace.SkillProfile // without its Name, which changes no flight
	budget   float64            // headless sim-time seconds; ≤ 0 is each spec's default
}

// runConfigOf is the run config a worker flying with batch declares.
func runConfigOf(batch sim.BatchConfig) runConfig {
	skill := batch.Skill
	skill.Name = ""
	return runConfig{headless: batch.Headless, skill: skill, budget: batch.Timeout.Seconds()}
}

// runConfig is the run config hb declares.
func (hb heartbeat) runConfig() runConfig {
	return runConfig{
		headless: hb.Headless,
		skill: trace.SkillProfile{
			ReactionLag: hb.ReactionLag, Overshoot: hb.Overshoot,
			SlackBand: hb.SlackBand, Jitter: hb.Jitter,
		},
		budget: hb.Budget,
	}
}

// stands reports whether answer a stands for the flight of spec under
// this run config: headless, and a trace.Answer.Stands skill and budget.
func (rc runConfig) stands(a trace.Answer, spec scenario.Spec) bool {
	budget := rc.budget
	if budget <= 0 {
		budget = trace.DefaultBudget(spec)
	}
	return rc.headless && a.Stands(budget, rc.skill)
}

func (rc runConfig) String() string {
	mode := "federation"
	if rc.headless {
		mode = "headless"
	}
	budget := "default"
	if rc.budget > 0 {
		budget = fmt.Sprintf("%gs", rc.budget)
	}
	return fmt.Sprintf("%s, skill lag %g overshoot %g slack %g jitter %g, budget %s",
		mode, rc.skill.ReactionLag, rc.skill.Overshoot, rc.skill.SlackBand, rc.skill.Jitter, budget)
}

func (j Job) String() string {
	return fmt.Sprintf("job %d (%s, seed %d)", j.ID, j.Spec.Name, j.Seed)
}

// SkillSeed mixes the job's sweep seed (which repeat) and ID (which run
// within the repeat) into the per-run skill-jitter seed, so every run of
// a sweep flies a distinct — yet reproducible — trainee when the batch
// skill profile carries Jitter. Local and distributed execution of the
// same job derive the same seed, keeping their verdicts comparable.
func (j Job) SkillSeed() int64 { return j.Seed<<20 ^ j.ID }
