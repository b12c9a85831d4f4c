package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync/atomic"
	"time"

	"codsim/cod"
	"codsim/internal/clock"
	"codsim/internal/obs"
	"codsim/internal/scenario"
	"codsim/internal/sim"
)

// Runner executes one job and returns its Record. The default runner
// pushes the job's spec through sim.RunOne with the worker's
// BatchConfig; tests substitute stubs to exercise the protocol without
// simulating anything.
type Runner func(ctx context.Context, job Job, cfg sim.BatchConfig) Record

// WorkerConfig tunes one worker host.
type WorkerConfig struct {
	// Name identifies the worker in heartbeats, grants and records;
	// defaults to the node's name. Unique per segment.
	Name string
	// Slots is how many jobs run concurrently (default 1). Each slot is a
	// whole scenario run — a full federation or a headless loop — so
	// size it like sim.DefaultParallel.
	Slots int
	// Heartbeat is the liveness beacon period (default 500 ms).
	Heartbeat time.Duration
	// Batch is how this worker runs its shard: Headless or the full
	// federation, with what timeout and skill.
	Batch sim.BatchConfig
	// Run substitutes the job runner (tests); nil uses DefaultRunner.
	Run Runner
	// Log receives job-state transitions as structured records with
	// consistent field names (sweep, job, attempt, span). Nil is silent.
	Log *slog.Logger
	// Spans, when set, records per-job phase latencies (dispatch, run and
	// ack are observed here, on the worker's clock); nil drops them.
	Spans *obs.Spans
}

func (c WorkerConfig) withDefaults(node *cod.Node) WorkerConfig {
	if c.Name == "" {
		c.Name = node.Name()
	}
	if c.Slots <= 0 {
		c.Slots = 1
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 500 * time.Millisecond
	}
	if c.Run == nil {
		c.Run = DefaultRunner
	}
	return c
}

// DefaultRunner runs the job's scenario through sim.RunOne on the slot's
// own goroutine — the worker's Slots is the concurrency control. The job's
// SkillSeed picks the trainee when the worker's skill profile carries
// Jitter; nothing else varies per job (every run flies the one site,
// terrain.DefaultMap), so a run is deterministic per spec and seed.
func DefaultRunner(ctx context.Context, job Job, cfg sim.BatchConfig) Record {
	return NewRecord(job, sim.RunOne(ctx, job.Spec, cfg, job.SkillSeed()), "")
}

// announceDepth is the announce subscription's Reliable window and, for the
// same reason, the cap on a worker's backlog: a coordinator cannot have more
// announces than this outstanding to one worker, so a backlog this deep
// holds everything the channel can deliver in one burst.
const announceDepth = 256

// wjPhase is a worker-side job state.
type wjPhase int

const (
	wjClaimed wjPhase = iota // bid sent, awaiting grant
	wjRunning
	wjFinished
)

// workerJob tracks one job the worker has bid on, is running, or has
// finished (finished jobs cache their result for replay).
type workerJob struct {
	phase     wjPhase
	attempt   int64
	job       Job
	rec       Record
	lastSend  time.Time // last result send, for the re-send backoff
	claimedAt time.Time // bid time, for claim expiry and dispatch latency
	firstSend time.Time // first result send, for the ack phase span
}

// Worker serves one host's slots to whatever coordinator runs on the
// segment. It keeps serving across sweeps: when a new coordinator starts
// announcing a different sweep ID, the worker keeps those announces, drops
// the previous sweep's bookkeeping once its slots drain, and bids.
type Worker struct {
	name  string
	cfg   WorkerConfig
	log   *slog.Logger
	spans *obs.Spans
	clock clock.Clock

	subJob   *cod.Sub[jobAnnounce]
	subGrant *cod.Sub[jobGrant]
	subAck   *cod.Sub[jobAck]
	pubClaim *cod.Pub[jobClaim]
	pubRes   *cod.Pub[jobResult]
	pubHB    *cod.Pub[heartbeat]

	sweep   int64
	jobs    map[int64]*workerJob
	running int
	claimed int // jobs in wjClaimed: bids awaiting their grant
	// backlog holds the announces this worker has not bid on, oldest
	// first, one entry per job with the spec still undecoded. Slots refill
	// from it, so the coordinator says each job once. At most
	// announceDepth entries.
	backlog []jobAnnounce
	// next holds, the same way, the announces of a sweep that began while
	// this worker still runs jobs of the current one. They become the
	// backlog when the last of those runs ends.
	next   []jobAnnounce
	doneCh chan Record // finished runs, keyed by Record.Job

	// Scrape-facing mirrors of the ledger above, refreshed by the Run
	// loop so Sample, read when /metrics is scraped, never touches loop
	// state.
	obsBusy     atomic.Int64
	obsClaimed  atomic.Int64
	obsBacklog  atomic.Int64
	obsFinished atomic.Int64 // cumulative runs finished
	obsAcked    atomic.Int64 // cumulative results acknowledged
}

// NewWorker registers the worker's channels on the node. The caller keeps
// ownership of the node; Close withdraws only the registrations.
func NewWorker(node *cod.Node, cfg WorkerConfig) (*Worker, error) {
	cfg = cfg.withDefaults(node)
	log := cfg.Log
	if log == nil {
		log = obs.Nop()
	}
	w := &Worker{
		name:   cfg.Name,
		cfg:    cfg,
		log:    log.With("worker", cfg.Name),
		spans:  cfg.Spans,
		clock:  node.Backbone().Clock(),
		jobs:   make(map[int64]*workerJob),
		doneCh: make(chan Record, cfg.Slots),
	}
	// Dispatch traffic is must-not-lose: announces, grants and acks ride
	// Reliable channels, so a worker that falls behind stalls the
	// coordinator's publisher (which retries next period) instead of
	// silently shedding distinct jobs from a drop-oldest mailbox.
	var err error
	if w.subJob, err = cod.Subscribe[jobAnnounce](node, cfg.Name, ClassJob, cod.Reliable(announceDepth)); err != nil {
		return nil, fmt.Errorf("dist: worker %s: %w", cfg.Name, err)
	}
	if w.subGrant, err = cod.Subscribe[jobGrant](node, cfg.Name, ClassGrant, cod.Reliable(256)); err != nil {
		w.Close()
		return nil, fmt.Errorf("dist: worker %s: %w", cfg.Name, err)
	}
	if w.subAck, err = cod.Subscribe[jobAck](node, cfg.Name, ClassAck, cod.Reliable(256)); err != nil {
		w.Close()
		return nil, fmt.Errorf("dist: worker %s: %w", cfg.Name, err)
	}
	if w.pubClaim, err = cod.Publish[jobClaim](node, cfg.Name, ClassClaim); err != nil {
		w.Close()
		return nil, fmt.Errorf("dist: worker %s: %w", cfg.Name, err)
	}
	if w.pubRes, err = cod.Publish[jobResult](node, cfg.Name, ClassResult); err != nil {
		w.Close()
		return nil, fmt.Errorf("dist: worker %s: %w", cfg.Name, err)
	}
	if w.pubHB, err = cod.Publish[heartbeat](node, cfg.Name, ClassHeartbeat); err != nil {
		w.Close()
		return nil, fmt.Errorf("dist: worker %s: %w", cfg.Name, err)
	}
	return w, nil
}

// Close withdraws the worker's channel registrations.
func (w *Worker) Close() error {
	var errs []error
	if w.subJob != nil {
		errs = append(errs, w.subJob.Close())
	}
	if w.subGrant != nil {
		errs = append(errs, w.subGrant.Close())
	}
	if w.subAck != nil {
		errs = append(errs, w.subAck.Close())
	}
	if w.pubClaim != nil {
		errs = append(errs, w.pubClaim.Close())
	}
	if w.pubRes != nil {
		errs = append(errs, w.pubRes.Close())
	}
	if w.pubHB != nil {
		errs = append(errs, w.pubHB.Close())
	}
	return errors.Join(errs...)
}

// Name returns the worker's identity on the segment.
func (w *Worker) Name() string { return w.name }

// Run serves jobs until ctx is done, then cancels any in-flight runs and
// returns ctx.Err(). The worker survives coordinator restarts: channels
// re-match through the backbone's dynamic join and new sweeps reset its
// bookkeeping.
func (w *Worker) Run(ctx context.Context) error {
	runCtx, cancelRuns := context.WithCancel(ctx)
	defer cancelRuns()

	// The first beat goes out when pubHB gains a channel, below: before a
	// coordinator's heartbeat subscription has matched, a beat reaches
	// nobody. The timer is for a coordinator that stopped listening
	// without a word.
	hb := w.clock.NewTimer(w.cfg.Heartbeat)
	defer hb.Stop()

	for {
		// Checked before the drains and the flush: once the worker is
		// dying, a runner aborted by cancelRuns hands back a record via
		// doneCh, and publishing that partial result would hand the
		// coordinator a false verdict. Cancellation happens-before any
		// such delivery, so this check is sufficient to suppress it.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.drainAnnounces()
		w.drainGrants(runCtx)
		w.drainAcks()
		w.expireClaims()
		w.bidBacklog()
		w.flushResults()
		w.publishStats()

		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-hb.C():
			hb.Reset(w.cfg.Heartbeat)
			w.beat()
		case <-w.pubHB.NotifyC():
			// A coordinator's heartbeat subscription matched (or one went
			// away): whoever listens now hears at once that this worker is
			// live, which is what WaitWorkers waits for.
			w.beat()
		case <-w.pubClaim.NotifyC():
			// A route for the bids bidBacklog could not send ...
		case <-w.pubRes.NotifyC():
			// ... and for the records flushResults could not.
		case rec := <-w.doneCh:
			w.running--
			w.obsFinished.Add(1)
			if j := w.jobs[rec.Job]; j != nil {
				j.phase = wjFinished
				j.rec = rec
			}
			w.log.Info("job finished",
				"sweep", w.sweep, "job", rec.Job, "attempt", rec.Attempt,
				"span", rec.Span, "wall_s", rec.WallSec, "passed", rec.Passed)
		case <-w.subJob.NotifyC():
		case <-w.subGrant.NotifyC():
		case <-w.subAck.NotifyC():
		}
	}
}

// beat publishes one heartbeat; no subscriber just means no coordinator
// is up yet.
func (w *Worker) beat() {
	// Every job this worker has accepted and still remembers — claimed,
	// running, or finished. Finished jobs stay listed so a result still
	// in flight is never mistaken for a lost grant.
	working := make([]int64, 0, len(w.jobs))
	for id := range w.jobs {
		working = append(working, id)
	}
	run := runConfigOf(w.cfg.Batch)
	_ = w.pubHB.Update(0, heartbeat{
		Worker:      w.name,
		Sweep:       w.sweep,
		Slots:       int64(w.cfg.Slots),
		Busy:        int64(w.running),
		Working:     working,
		Headless:    run.headless,
		ReactionLag: run.skill.ReactionLag,
		Overshoot:   run.skill.Overshoot,
		SlackBand:   run.skill.SlackBand,
		Jitter:      run.skill.Jitter,
		Budget:      run.budget,
	})
}

// publishStats refreshes the scrape-facing mirrors of the job ledger.
func (w *Worker) publishStats() {
	w.obsBusy.Store(int64(w.running))
	w.obsClaimed.Store(int64(w.claimed))
	w.obsBacklog.Store(int64(len(w.backlog) + len(w.next)))
}

// Sample snapshots the worker's dispatch state for the telemetry plane
// (obs.Plane.AddDispatch), which reads it when /metrics is scraped. Safe
// to call from any goroutine.
func (w *Worker) Sample() obs.DispatchSample {
	return obs.DispatchSample{
		Role:         "worker",
		Name:         w.name,
		Slots:        int64(w.cfg.Slots),
		Busy:         w.obsBusy.Load(),
		Claimed:      w.obsClaimed.Load(),
		Backlog:      w.obsBacklog.Load(),
		Finished:     w.obsFinished.Load(),
		ResultsAcked: w.obsAcked.Load(),
	}
}

// free reports how many slots are neither running nor bid away.
func (w *Worker) free() int { return w.cfg.Slots - w.running - w.claimed }

// release forgets a bid that will draw no grant, freeing its slot.
func (w *Worker) release(job int64) {
	delete(w.jobs, job)
	w.claimed--
}

// drainAnnounces files every announce that has arrived, after those of a
// sweep that was waiting for this worker's last run of the previous one.
func (w *Worker) drainAnnounces() {
	if w.running == 0 && len(w.next) > 0 {
		held := w.next
		w.next = nil
		for _, ann := range held {
			w.file(ann)
		}
	}
	for {
		r, ok, err := w.subJob.Poll()
		if err != nil {
			continue
		}
		if !ok {
			return
		}
		w.file(r.Value)
	}
}

// file takes one announce: one for a job this worker already holds renews
// its bid or re-arms its cached result — the coordinator only re-announces
// what it never recorded — and any other goes to the backlog for
// bidBacklog.
func (w *Worker) file(ann jobAnnounce) {
	if ann.Sweep != w.sweep {
		// A new sweep begins once the old one's slots drain; until then
		// its announces are kept, not bid on, so the new coordinator says
		// each job once whatever this worker was doing.
		if w.running > 0 {
			if len(w.next) > 0 && w.next[0].Sweep != ann.Sweep {
				clear(w.next) // a third sweep: the one kept was abandoned
				w.next = w.next[:0]
			}
			if len(w.next) == 0 {
				w.log.Info("sweep waits for running jobs",
					"sweep", ann.Sweep, "running", w.running)
			}
			w.next = stash(w.next, ann)
			return
		}
		w.sweep = ann.Sweep
		w.jobs = make(map[int64]*workerJob)
		w.claimed = 0
		clear(w.backlog) // let go of the old sweep's specs
		w.backlog = w.backlog[:0]
	}
	j := w.jobs[ann.Job]
	if j == nil {
		w.backlog = stash(w.backlog, ann)
		return
	}
	switch {
	case j.phase == wjFinished:
		// The coordinator lost or timed out our result: replay it
		// under the announced attempt.
		j.attempt = ann.Attempt
		j.lastSend = time.Time{}
	case j.phase == wjClaimed && ann.Attempt > j.attempt:
		// Our earlier bid went stale; renew it for the new attempt.
		j.attempt = ann.Attempt
		w.claim(j)
	}
}

// stash keeps ann in list, one entry per job: a newer attempt takes the
// stale entry's place in the queue, a repeat of the held attempt (the
// coordinator's period, or its word to a worker that just joined) changes
// nothing. A full list drops the announce; the period brings it back.
func stash(list []jobAnnounce, ann jobAnnounce) []jobAnnounce {
	for i := range list {
		if list[i].Job == ann.Job {
			if ann.Attempt > list[i].Attempt {
				list[i] = ann
			}
			return list
		}
	}
	if len(list) < announceDepth {
		list = append(list, ann)
	}
	return list
}

// unstash drops the backlog entry for job when another worker was granted
// that attempt or a later one. A late grant for an older attempt says
// nothing about the entry held.
func (w *Worker) unstash(job, attempt int64) {
	for i := range w.backlog {
		if w.backlog[i].Job == job {
			if w.backlog[i].Attempt <= attempt {
				w.backlog = slices.Delete(w.backlog, i, i+1)
			}
			return
		}
	}
}

// bidBacklog bids on the oldest announces while slots are free, so a slot
// that a finished run or a lost race just freed takes its next job without
// the coordinator saying anything again.
func (w *Worker) bidBacklog() {
	for w.free() > 0 && len(w.backlog) > 0 {
		ann := w.backlog[0]
		spec, err := scenario.UnmarshalSpec(ann.Spec)
		if err != nil {
			w.backlog = slices.Delete(w.backlog, 0, 1) // foreign or corrupt job; someone else may parse it
			continue
		}
		j := &workerJob{
			phase:   wjClaimed,
			attempt: ann.Attempt,
			job:     Job{ID: ann.Job, Seed: ann.Seed, Spec: spec, Span: ann.Span},
		}
		w.jobs[ann.Job] = j
		w.claimed++
		if !w.claim(j) {
			return // no route to the coordinator: the entry stays for the next pass
		}
		w.backlog = slices.Delete(w.backlog, 0, 1)
	}
}

// claim publishes one bid and reports whether it went out; a routing
// failure forgets the bid so the next announce can retry it.
func (w *Worker) claim(j *workerJob) bool {
	err := w.pubClaim.Update(0, jobClaim{
		Sweep: w.sweep, Job: j.job.ID, Attempt: j.attempt, Worker: w.name,
	})
	if err != nil {
		w.release(j.job.ID)
		return false
	}
	j.claimedAt = w.clock.Now()
	return true
}

// expireClaims drops bids that never drew a grant — the race was lost
// before this worker's grant channel was established, so the release
// grant never arrived. The coordinator's next announce can renew the bid.
func (w *Worker) expireClaims() {
	if w.claimed == 0 {
		return
	}
	ttl := 4 * w.cfg.Heartbeat
	now := w.clock.Now()
	for id, j := range w.jobs {
		if j.phase == wjClaimed && now.Sub(j.claimedAt) > ttl {
			w.release(id)
		}
	}
}

// drainGrants starts granted runs and releases bids granted elsewhere.
func (w *Worker) drainGrants(runCtx context.Context) {
	for {
		r, ok, err := w.subGrant.Poll()
		if err != nil {
			continue
		}
		if !ok {
			return
		}
		g := r.Value
		if g.Sweep != w.sweep {
			continue
		}
		j := w.jobs[g.Job]
		if g.Worker != w.name {
			if j == nil {
				w.unstash(g.Job, g.Attempt)
			} else if j.phase == wjClaimed {
				w.release(g.Job) // lost the race; free the slot
			}
			continue
		}
		if j == nil || j.phase != wjClaimed {
			continue // duplicate grant re-send
		}
		j.phase = wjRunning
		w.claimed--
		w.running++
		// The dispatch phase ends here: the bid waited from claim to
		// grant, all on this worker's clock.
		dispatched := w.clock.Now().Sub(j.claimedAt)
		w.spans.Observe(obs.PhaseDispatch, dispatched)
		// Fractional ms, for the same reason as the coordinator's queueMS.
		dispatchMS := float64(dispatched.Microseconds()) / 1e3
		w.log.Info("job started",
			"sweep", w.sweep, "job", g.Job, "attempt", g.Attempt,
			"span", j.job.Span, "dispatch_ms", dispatchMS)
		go func(job Job, attempt int64) {
			start := w.clock.Now()
			rec := w.cfg.Run(runCtx, job, w.cfg.Batch)
			w.spans.Observe(obs.PhaseRun, w.clock.Now().Sub(start))
			rec.Job = job.ID
			rec.Attempt = attempt
			rec.Worker = w.name
			rec.Span = job.Span
			rec.DispatchMS = dispatchMS
			w.doneCh <- rec
		}(j.job, j.attempt)
	}
}

// drainAcks stops the re-send loop of acknowledged results.
func (w *Worker) drainAcks() {
	for {
		r, ok, err := w.subAck.Poll()
		if err != nil {
			continue
		}
		if !ok {
			return
		}
		if r.Value.Sweep != w.sweep {
			continue
		}
		// The coordinator has the record and will never announce this job
		// again, so the whole entry can go: keeping it would grow every
		// heartbeat's Working list (and the cached Records) with all jobs
		// ever run in the sweep.
		if j := w.jobs[r.Value.Job]; j != nil && j.phase == wjFinished {
			// The ack phase ends here: the record waited from its first
			// send until the coordinator confirmed receipt.
			if !j.firstSend.IsZero() {
				w.spans.Observe(obs.PhaseAck, w.clock.Now().Sub(j.firstSend))
			}
			w.obsAcked.Add(1)
			delete(w.jobs, r.Value.Job)
		}
	}
}

// flushResults publishes finished, unacknowledged records, re-sending on
// a backoff until the coordinator's ack arrives. The Reliable result
// channel carries most of the delivery contract now — a successful Update
// means the record sits in the coordinator's mailbox or the window would
// have stalled us — but the ack loop stays for the one loss the window
// cannot see: link churn tears the virtual channel down, and a frame
// written just before the teardown vanishes without an error on either
// side. So only an ack (or a replay request via re-announce) ends a
// record's delivery loop; ErrWindowFull just means the coordinator is
// saturated, and the next pass retries without burning the backoff.
func (w *Worker) flushResults() {
	resend := 4 * w.cfg.Heartbeat
	now := w.clock.Now()
	for id, j := range w.jobs {
		if j.phase != wjFinished || now.Sub(j.lastSend) < resend {
			continue
		}
		data, err := marshalRecord(j.rec)
		if err != nil {
			delete(w.jobs, id) // unencodable record cannot improve with retries
			continue
		}
		err = w.pubRes.Update(0, jobResult{
			Sweep: w.sweep, Job: j.job.ID, Attempt: j.attempt,
			Worker: w.name, Record: data,
		})
		switch {
		case err == nil:
			j.lastSend = now
			if j.firstSend.IsZero() {
				j.firstSend = now
			}
			w.log.Info("result sent",
				"sweep", w.sweep, "job", j.job.ID, "attempt", j.attempt,
				"span", j.job.Span)
		case errors.Is(err, cod.ErrWindowFull):
			w.log.Warn("result deferred: coordinator window full",
				"sweep", w.sweep, "job", j.job.ID, "span", j.job.Span)
		default:
			w.log.Warn("result not sent",
				"sweep", w.sweep, "job", j.job.ID, "span", j.job.Span, "err", err)
		}
	}
}
