package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
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

// workerJob is one job of the worker's sweep that it was granted: running,
// or finished with its Record cached for re-sends and replays until the
// coordinator acknowledges it.
type workerJob struct {
	finished  bool
	attempt   int64
	span      string
	rec       Record
	lastSend  time.Time // last result send, for the re-send backoff
	firstSend time.Time // first result send, for the ack phase span
}

// doneRun is a run's Record as its slot hands it back, with the sweep
// whose grant started it.
type doneRun struct {
	sweep int64
	rec   Record
}

// Worker serves one host's slots to whatever coordinator runs on the
// segment. It keeps serving across sweeps: the first grant of a new sweep
// ID drops the previous sweep's bookkeeping, and the runs still going of
// that sweep hold their slots until they end.
type Worker struct {
	name  string
	cfg   WorkerConfig
	log   *slog.Logger
	spans *obs.Spans
	clock clock.Clock

	subGrant *cod.Sub[jobGrant]
	subAck   *cod.Sub[jobAck]
	pubRes   *cod.Pub[jobResult]
	pubHB    *cod.Pub[heartbeat]

	sweep  int64
	jobs   map[int64]*workerJob
	doneCh chan doneRun // finished runs

	// Counters that Sample, read when /metrics is scraped, reads too; only
	// the Run loop writes them.
	running     atomic.Int64 // runs on the slots, of any sweep
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
		doneCh: make(chan doneRun, cfg.Slots),
	}
	// Dispatch traffic is must-not-lose: grants and acks ride Reliable
	// channels, so a worker that falls behind stalls the coordinator's
	// publisher instead of silently shedding distinct jobs from a
	// drop-oldest mailbox.
	var err error
	if w.subGrant, err = cod.Subscribe[jobGrant](node, cfg.Name, ClassGrant, cod.Reliable(256)); err != nil {
		return nil, fmt.Errorf("dist: worker %s: %w", cfg.Name, err)
	}
	if w.subAck, err = cod.Subscribe[jobAck](node, cfg.Name, ClassAck, cod.Reliable(256)); err != nil {
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
	if w.subGrant != nil {
		errs = append(errs, w.subGrant.Close())
	}
	if w.subAck != nil {
		errs = append(errs, w.subAck.Close())
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
// re-match through the backbone's dynamic join and a new sweep's first
// grant resets its bookkeeping.
func (w *Worker) Run(ctx context.Context) error {
	runCtx, cancelRuns := context.WithCancel(ctx)
	defer cancelRuns()

	// The first beat goes out when pubHB gains a channel, below: before a
	// coordinator's heartbeat subscription has matched, a beat reaches
	// nobody. The timer is for a coordinator that stopped listening
	// without a word.
	hb := w.clock.NewTimer(w.cfg.Heartbeat)
	defer hb.Stop()

	freed := false // a run ended since the last pass
	for {
		// Checked before the drains and the flush: once the worker is
		// dying, a runner aborted by cancelRuns hands back a record via
		// doneCh, and publishing that partial result would hand the
		// coordinator a false verdict. Cancellation happens-before any
		// such delivery, so this check is sufficient to suppress it.
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.drainGrants(runCtx)
		w.drainAcks()
		w.flushResults()
		if freed {
			// Say the slot freed, after its run's record: a coordinator,
			// of this run's sweep or another, counts the run on its slot
			// until a beat leaves it out of Busy.
			w.beat()
			freed = false
		}

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
		case <-w.pubRes.NotifyC():
			// A route for the records flushResults could not send.
		case d := <-w.doneCh:
			w.finish(d)
			freed = true
		case <-w.subGrant.NotifyC():
		case <-w.subAck.NotifyC():
		}
	}
}

// beat publishes one heartbeat; no subscriber just means no coordinator
// is up yet.
func (w *Worker) beat() {
	// Every job of the sweep this worker was granted and still remembers —
	// running, or finished. Finished jobs stay listed so a result still in
	// flight is never mistaken for a lost grant.
	working := make([]int64, 0, len(w.jobs))
	for id := range w.jobs {
		working = append(working, id)
	}
	run := runConfigOf(w.cfg.Batch)
	_ = w.pubHB.Update(0, heartbeat{
		Worker:      w.name,
		Sweep:       w.sweep,
		Slots:       int64(w.cfg.Slots),
		Busy:        w.running.Load(),
		Working:     working,
		Headless:    run.headless,
		ReactionLag: run.skill.ReactionLag,
		Overshoot:   run.skill.Overshoot,
		SlackBand:   run.skill.SlackBand,
		Jitter:      run.skill.Jitter,
		Budget:      run.budget,
	})
}

// Sample snapshots the worker's dispatch state for the telemetry plane
// (obs.Plane.AddDispatch), which reads it when /metrics is scraped. Safe
// to call from any goroutine.
func (w *Worker) Sample() obs.DispatchSample {
	return obs.DispatchSample{
		Role:         "worker",
		Name:         w.name,
		Slots:        int64(w.cfg.Slots),
		Busy:         w.running.Load(),
		Finished:     w.obsFinished.Load(),
		ResultsAcked: w.obsAcked.Load(),
	}
}

// drainGrants starts the runs granted to this worker. Every worker hears
// every grant; one naming another worker says nothing to this one.
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
		if g.Worker != w.name {
			continue
		}
		if g.Sweep != w.sweep {
			// A new coordinator's first grant: the previous sweep's records
			// go unsent, and its runs still going hold their slots.
			w.log.Info("new sweep", "sweep", g.Sweep, "busy", w.running.Load())
			w.sweep, w.jobs = g.Sweep, make(map[int64]*workerJob)
		}
		if j := w.jobs[g.Job]; j != nil {
			if g.Attempt > j.attempt {
				// Re-dispatched to this worker again: a run goes on under the
				// new attempt, a finished one's Record is sent again under it.
				j.attempt, j.lastSend = g.Attempt, time.Time{}
			}
			continue // otherwise a grant sent again
		}
		j := &workerJob{attempt: g.Attempt, span: g.Span}
		w.jobs[g.Job] = j
		spec, err := scenario.UnmarshalSpec(g.Spec)
		if err != nil {
			j.finished = true
			j.rec = Record{Job: g.Job, Attempt: g.Attempt, Seed: g.Seed, Worker: w.name, Span: g.Span,
				Err: fmt.Sprintf("dist: worker %s: job %d: %v", w.name, g.Job, err)}
			continue
		}
		w.running.Add(1)
		w.log.Info("job started",
			"sweep", w.sweep, "job", g.Job, "attempt", g.Attempt, "span", g.Span)
		// The dispatch phase runs from here to the run's start, all on this
		// worker's clock. Nanoseconds, as the coordinator's queue phase.
		taken := w.clock.Now()
		go func(sweep int64, job Job, attempt int64) {
			start := w.clock.Now()
			dispatched := start.Sub(taken)
			w.spans.Observe(obs.PhaseDispatch, dispatched)
			rec := w.cfg.Run(runCtx, job, w.cfg.Batch)
			w.spans.Observe(obs.PhaseRun, w.clock.Now().Sub(start))
			rec.Job = job.ID
			rec.Attempt = attempt
			rec.Worker = w.name
			rec.Span = job.Span
			rec.DispatchMS = float64(dispatched.Nanoseconds()) / 1e6
			w.doneCh <- doneRun{sweep, rec}
		}(w.sweep, Job{ID: g.Job, Seed: g.Seed, Spec: spec, Span: g.Span}, g.Attempt)
	}
}

// finish takes a run's Record back from its slot. One of an earlier sweep
// is dropped: that sweep's coordinator is gone.
func (w *Worker) finish(d doneRun) {
	w.running.Add(-1)
	w.obsFinished.Add(1)
	if d.sweep != w.sweep {
		return
	}
	rec := d.rec
	if j := w.jobs[rec.Job]; j != nil {
		j.finished, j.rec = true, rec
	}
	w.log.Info("job finished",
		"sweep", w.sweep, "job", rec.Job, "attempt", rec.Attempt,
		"span", rec.Span, "wall_s", rec.WallSec, "passed", rec.Passed)
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
		// The coordinator has the record and will never grant this job
		// again, so the whole entry can go: keeping it would grow every
		// heartbeat's Working list (and the cached Records) with all jobs
		// ever run in the sweep.
		if j := w.jobs[r.Value.Job]; j != nil && j.finished {
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
// side. So only an ack (or a replay's grant at a newer attempt) ends a
// record's delivery loop; ErrWindowFull just means the coordinator is
// saturated, and the next pass retries without burning the backoff.
func (w *Worker) flushResults() {
	resend := 4 * w.cfg.Heartbeat
	now := w.clock.Now()
	for id, j := range w.jobs {
		if !j.finished || now.Sub(j.lastSend) < resend {
			continue
		}
		data, err := marshalRecord(j.rec)
		if err != nil {
			delete(w.jobs, id) // unencodable record cannot improve with retries
			continue
		}
		err = w.pubRes.Update(0, jobResult{
			Sweep: w.sweep, Job: id, Attempt: j.attempt,
			Worker: w.name, Record: data,
		})
		switch {
		case err == nil:
			j.lastSend = now
			if j.firstSend.IsZero() {
				j.firstSend = now
			}
			w.log.Info("result sent",
				"sweep", w.sweep, "job", id, "attempt", j.attempt,
				"span", j.span)
		case errors.Is(err, cod.ErrWindowFull):
			w.log.Warn("result deferred: coordinator window full",
				"sweep", w.sweep, "job", id, "span", j.span)
		default:
			w.log.Warn("result not sent",
				"sweep", w.sweep, "job", id, "span", j.span, "err", err)
		}
	}
}
