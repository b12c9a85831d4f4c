// Package dist shards scenario batches across worker hosts over the
// Communication Backbone, making the paper's cluster-of-desktops story
// real at the batch layer: one coordinator process owns a work list of
// scenario jobs, N worker processes each run their share through
// sim.RunOne, and every exchange rides typed cod channels on a shared
// LAN segment (UDPLAN across processes, MemLAN inside tests).
//
// # Protocol
//
// Six object classes carry the whole protocol:
//
//	dist.Job        coordinator → workers   announce of an unassigned job
//	dist.Claim      worker → coordinator    bid to run an announced job
//	dist.Grant      coordinator → workers   assignment of a job to one worker
//	dist.Result     worker → coordinator    the finished job's Record (JSON)
//	dist.Ack        coordinator → workers   receipt of a job's Record
//	dist.Heartbeat  worker → coordinator    liveness + slot occupancy
//
// Dispatch and result channels (dist.Job, dist.Claim, dist.Grant,
// dist.Result, dist.Ack) declare the backbone's Reliable delivery policy:
// each publisher holds a credit window per subscriber, so a saturated
// peer stalls the sender instead of a mailbox shedding distinct protocol
// messages. dist.Heartbeat declares LatestValue — each worker is its own
// virtual channel, so conflation keeps exactly the newest beat per
// worker. The window covers slow-consumer loss; the ack/re-send loop
// below stays for link-churn loss, which no window can see.
//
// Dispatch is pull-based. The coordinator announces a job when it is
// loaded and again when it is re-dispatched, in load order. A worker keeps
// every announce it cannot bid on yet in a backlog — spec undecoded, one
// entry per job, oldest first, at most the announce channel's Reliable
// window — drops an entry when it sees that attempt granted to another
// worker, and bids from the backlog whenever a slot is free. So a slot
// that a finished run or a lost race frees takes the next job with no word
// from the coordinator, and a sweep runs first in, first out. A worker
// still running a job of the previous sweep keeps the next sweep's
// announces the same way and bids on them when its last run ends.
//
// # Readiness and joining
//
// A pool is ready when its channels are, and every step of becoming ready
// is an event of the backbone's (cb's package doc has the protocol), not a
// period of this package's:
//
//   - A worker beats the moment its heartbeat publication gains a
//     channel — a coordinator's subscription matched — and retries a bid
//     or a record it could not route when the claim or result publication
//     gains one. Its Heartbeat period is for a coordinator that stopped
//     listening without a word.
//   - WaitWorkers returns when every named worker has beaten and the
//     coordinator's announce, grant and ack publications each reach that
//     many workers: a few round trips after the last of them was built,
//     whichever side was built first.
//   - A sweep's first announces are therefore heard. When pubJob gains a
//     channel anyway — a sweep started before its pool, a worker joining
//     mid-sweep — the coordinator announces every pending job again at
//     once, and when pubGrant gains one it sends every standing grant
//     again, since a newcomer can win a bid before its grant channel is
//     built. Both are idempotent for the workers that had them.
//
// The Announce period is the net under all of this, not the feed: a job
// still unassigned after a period is announced again, which reaches a
// worker whose announce window was full or whose join raced another's
// departure. The messages are those of builds without a backlog, so mixed
// builds stay correct; such a worker under this coordinator refills only
// at the period.
//
// Claims race; the coordinator grants each (job, attempt) to exactly one
// worker, and no claim goes unanswered: one for a granted or finished job
// draws the standing grant so the loser releases its bid, one for an
// attempt the coordinator has moved past draws the current announce so
// the bidder renews.
// A granted job is re-dispatched — announced again with the next attempt
// number — when its worker misses heartbeats long enough to be declared
// dead, or when the job outlives JobTimeout. Results ride at-least-once
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
// jobs from a JobSource and keeps at most CoordinatorConfig.Window of
// them in flight, so a procedural campaign (scenario/gen via codbatch
// -campaign) streams thousands of generated jobs through the sweep
// without materializing them up front. Run is RunStream over a
// materialized slice.
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
// Each job carries a trace-span ID minted at dispatch and threaded
// through announce, grant and the returned Record, with phase latencies
// (queue, dispatch, run, ack) recorded into an optional obs.Spans
// histogram — each phase is timed on a single machine's clock, so skew
// between hosts never distorts it.
// Coordinator.Sample and Worker.Sample expose live dispatch state for
// the obs plane's codsim_dist_* gauges, read when /metrics is scraped,
// among them the coordinator's announce count (against its attempts:
// about one each, unless announces are being lost or re-sent in a storm)
// and each worker's backlog depth.
package dist

import (
	"fmt"

	"codsim/internal/scenario"
)

// Object classes of the dist protocol.
const (
	ClassJob       = "dist.Job"
	ClassClaim     = "dist.Claim"
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
	// dispatch and threaded through to the worker and its Record so log
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

// jobAnnounce advertises an unassigned (job, attempt) with its spec JSON.
// Span rides at the end: appended fields keep positional attribute IDs
// stable for the fields older builds know.
type jobAnnounce struct {
	Sweep   int64
	Job     int64
	Attempt int64
	Seed    int64
	Spec    []byte
	Span    string
}

// jobClaim is a worker's bid to run an announced job.
type jobClaim struct {
	Sweep   int64
	Job     int64
	Attempt int64
	Worker  string
}

// jobGrant assigns a claimed job to exactly one worker. Every worker hears
// it; an empty Worker (a job recorded without a grantee) releases them all.
type jobGrant struct {
	Sweep   int64
	Job     int64
	Attempt int64
	Worker  string
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

// heartbeat is a worker's periodic liveness beacon. Working lists the
// jobs of Sweep the worker has accepted and still remembers (claimed,
// running, or finished): the coordinator uses it to detect a grant that
// never reached its worker — the grantee is alive and beating, yet never
// lists the job — and re-dispatch far sooner than JobTimeout.
type heartbeat struct {
	Worker  string
	Sweep   int64
	Slots   int64
	Busy    int64
	Working []int64
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
