package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"codsim/cod"
	"codsim/internal/obs"
	"codsim/internal/scenario"
)

// CoordinatorConfig tunes dispatch and failure detection.
type CoordinatorConfig struct {
	// Sweep identifies this work list on the segment; workers key their
	// job state by it, so two sweeps reusing job IDs never mix. 0 derives
	// one from the wall clock.
	Sweep int64
	// Announce is how often a job still unassigned is announced again
	// (default 250 ms). Workers keep what they hear and refill their slots
	// from it, and a worker that joins after the announce is told the
	// pending jobs the moment its channel is up, so the period is not what
	// feeds a pool: it reaches a worker whose announce window was full. A
	// worker built before the backlog (same messages, so mixed builds stay
	// correct) refills only at this period. This is also the coordinator's
	// bookkeeping tick, so dead workers are detected within roughly one
	// Announce of DeadAfter.
	Announce time.Duration
	// DeadAfter declares a worker dead this long after its last
	// heartbeat, re-dispatching its granted jobs (default 3 s — six of
	// the workers' default 500 ms beacons).
	DeadAfter time.Duration
	// JobTimeout re-dispatches a granted job that has produced no result
	// after this long, even from a live worker (default 10 min; a full
	// federation run at timescale 1 is slow, headless shards are not).
	JobTimeout time.Duration
	// MaxAttempts gives up on a job after this many dispatches and
	// records a synthetic failure (default 3).
	MaxAttempts int
	// Window bounds how many jobs a sweep holds in flight (pending or
	// granted) ahead of the workers before pulling more from its source
	// (default 64). Run is RunStream over a slice, so it honours the
	// window too: the list is materialized, its announces are not.
	Window int
	// Log receives dispatch-state transitions (grants, results,
	// re-dispatches) as structured records with consistent field names
	// (sweep, job, worker, attempt, span). Nil is silent.
	Log *slog.Logger
	// Spans, when set, records per-job phase latencies (the queue phase is
	// observed here, on the coordinator's clock); nil drops them.
	Spans *obs.Spans
}

// logger resolves the configured structured sink.
func (c CoordinatorConfig) logger() *slog.Logger {
	log := c.Log
	if log == nil {
		log = obs.Nop()
	}
	return log.With("sweep", c.Sweep)
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.Sweep == 0 {
		c.Sweep = time.Now().UnixNano()
	}
	if c.Announce <= 0 {
		c.Announce = 250 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 3 * time.Second
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	return c
}

// workerInfo is the coordinator's liveness view of one worker.
type workerInfo struct {
	seen    time.Time // when the last heartbeat arrived
	sweep   int64     // the sweep that heartbeat reported
	working map[int64]bool
}

// Coordinator owns a sweep's work list: it announces jobs, grants claims,
// collects results, and re-dispatches work lost to dead or stalled
// workers. One coordinator per segment at a time.
type Coordinator struct {
	cfg   CoordinatorConfig
	log   *slog.Logger
	spans *obs.Spans

	pubJob   *cod.Pub[jobAnnounce]
	pubGrant *cod.Pub[jobGrant]
	pubAck   *cod.Pub[jobAck]
	subClaim *cod.Sub[jobClaim]
	subRes   *cod.Sub[jobResult]
	subHB    *cod.Sub[heartbeat]

	workers map[string]*workerInfo
	// jobChans and grantChans are the channel counts of pubJob and
	// pubGrant as the last pass saw them, to tell a worker joining from
	// one leaving.
	jobChans, grantChans int

	// prog mirrors dispatch state for the telemetry plane. RunStream
	// updates it at every phase transition; Sample reads it from whichever
	// goroutine serves a /metrics scrape, so it has its own lock.
	progMu sync.Mutex
	prog   progress
}

// progress is the coordinator's scrape-facing dispatch state.
type progress struct {
	pending      int64 // jobs loaded, awaiting a grant
	granted      int64 // jobs granted, awaiting a result
	done         int64 // jobs with a Record
	attempts     int64 // dispatch attempts started (first + re-dispatches)
	redispatches int64 // re-dispatches of lost or timed-out grants
	announces    int64 // announce publications, each to every worker
	start        time.Time
	workers      map[string]*workerProg
}

// workerProg is the coordinator's per-worker progress view.
type workerProg struct {
	done  int64 // results delivered this sweep
	slots int64 // from the last heartbeat
	busy  int64
	seen  time.Time
}

// NewCoordinator registers the coordinator's channels on the node. The
// caller keeps ownership of the node; Close withdraws only the
// registrations.
func NewCoordinator(node *cod.Node, cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		log:     cfg.logger(),
		spans:   cfg.Spans,
		workers: make(map[string]*workerInfo),
		prog:    progress{start: time.Now(), workers: make(map[string]*workerProg)},
	}
	// Subscriptions first: a worker's CB answers them by dialing this
	// node, and then answers the publications' solicits over that link, at
	// once and without a broadcast, even when an earlier coordinator still
	// serves its subscriptions.
	//
	// Claims and results are must-not-lose: Reliable windows push
	// saturation back to the workers (whose re-send loops retry) instead
	// of dropping a finished run's record. Heartbeats are pure state —
	// LatestValue keeps the newest beat per worker (each worker is its
	// own virtual channel) under any backlog.
	var err error
	if c.subClaim, err = cod.Subscribe[jobClaim](node, coordinatorLP, ClassClaim, cod.Reliable(1024)); err != nil {
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	if c.subRes, err = cod.Subscribe[jobResult](node, coordinatorLP, ClassResult, cod.Reliable(1024)); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	if c.subHB, err = cod.Subscribe[heartbeat](node, coordinatorLP, ClassHeartbeat, cod.WithQueue(256), cod.LatestValue()); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	if c.pubJob, err = cod.Publish[jobAnnounce](node, coordinatorLP, ClassJob); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	if c.pubGrant, err = cod.Publish[jobGrant](node, coordinatorLP, ClassGrant); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	if c.pubAck, err = cod.Publish[jobAck](node, coordinatorLP, ClassAck); err != nil {
		c.Close()
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	return c, nil
}

// Close withdraws the coordinator's channel registrations.
func (c *Coordinator) Close() error {
	var errs []error
	if c.pubJob != nil {
		errs = append(errs, c.pubJob.Close())
	}
	if c.pubGrant != nil {
		errs = append(errs, c.pubGrant.Close())
	}
	if c.pubAck != nil {
		errs = append(errs, c.pubAck.Close())
	}
	if c.subClaim != nil {
		errs = append(errs, c.subClaim.Close())
	}
	if c.subRes != nil {
		errs = append(errs, c.subRes.Close())
	}
	if c.subHB != nil {
		errs = append(errs, c.subHB.Close())
	}
	return errors.Join(errs...)
}

// WaitWorkers blocks until every named worker has heartbeated at least
// once and the dispatch channels to that many workers are up (or ctx is
// done), so a sweep doesn't start before the pool it was sized for is live
// and its first announces and grants reach all of it. A worker beats the
// moment its heartbeat channel to this coordinator is up, so the wait is
// the channels' round trips, not a heartbeat period.
func (c *Coordinator) WaitWorkers(ctx context.Context, names []string) error {
	missing := make(map[string]bool, len(names))
	for _, n := range names {
		missing[n] = true
	}
	pool := len(missing)
	for n := range missing {
		if _, seen := c.workers[n]; seen {
			delete(missing, n)
		}
	}
	for len(missing) > 0 {
		hb, err := c.subHB.Next(ctx)
		if errors.Is(err, cod.ErrMissingAttr) {
			continue // shape mismatch from a foreign build: skip, like drainHeartbeats
		}
		if err != nil {
			return fmt.Errorf("dist: waiting for workers %v: %w", keys(missing), err)
		}
		c.noteHeartbeat(hb.Value)
		delete(missing, hb.Value.Worker)
	}
	for _, wait := range []func(context.Context, int) error{
		c.pubJob.WaitChannels, c.pubGrant.WaitChannels, c.pubAck.WaitChannels,
	} {
		if err := wait(ctx, pool); err != nil {
			return fmt.Errorf("dist: waiting for dispatch channels to %d workers: %w", pool, err)
		}
	}
	return nil
}

// noteHeartbeat folds one heartbeat into the worker table and the
// telemetry progress view.
func (c *Coordinator) noteHeartbeat(hb heartbeat) {
	working := make(map[int64]bool, len(hb.Working))
	for _, id := range hb.Working {
		working[id] = true
	}
	now := time.Now()
	c.workers[hb.Worker] = &workerInfo{seen: now, sweep: hb.Sweep, working: working}

	c.progMu.Lock()
	wp := c.prog.workers[hb.Worker]
	if wp == nil {
		wp = &workerProg{}
		c.prog.workers[hb.Worker] = wp
	}
	wp.slots, wp.busy, wp.seen = hb.Slots, hb.Busy, now
	c.progMu.Unlock()
}

// moveJob records one job's phase transition in the progress view; pass
// from = -1 for a newly loaded job.
func (c *Coordinator) moveJob(from, to jobPhase) {
	c.progMu.Lock()
	switch from {
	case jobPending:
		c.prog.pending--
	case jobGranted:
		c.prog.granted--
	}
	switch to {
	case jobPending:
		c.prog.pending++
	case jobGranted:
		c.prog.granted++
	case jobDone:
		c.prog.done++
	}
	c.progMu.Unlock()
}

// noteAttempt counts one dispatch attempt (and, past the first, one
// re-dispatch).
func (c *Coordinator) noteAttempt(redispatch bool) {
	c.progMu.Lock()
	c.prog.attempts++
	if redispatch {
		c.prog.redispatches++
	}
	c.progMu.Unlock()
}

// noteWorkerDone credits one delivered result to a worker's throughput.
func (c *Coordinator) noteWorkerDone(worker string) {
	c.progMu.Lock()
	wp := c.prog.workers[worker]
	if wp == nil {
		wp = &workerProg{}
		c.prog.workers[worker] = wp
	}
	wp.done++
	c.progMu.Unlock()
}

// Sample snapshots the coordinator's dispatch state for the telemetry
// plane (obs.Plane.AddDispatch), which reads it when /metrics is scraped.
// Safe to call from any goroutine.
func (c *Coordinator) Sample() obs.DispatchSample {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	d := obs.DispatchSample{
		Role:         "coordinator",
		Name:         fmt.Sprintf("sweep-%d", c.cfg.Sweep),
		Pending:      c.prog.pending,
		Granted:      c.prog.granted,
		Done:         c.prog.done,
		Attempts:     c.prog.attempts,
		Redispatches: c.prog.redispatches,
		Announces:    c.prog.announces,
	}
	elapsed := time.Since(c.prog.start).Seconds()
	names := make([]string, 0, len(c.prog.workers))
	for name := range c.prog.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wp := c.prog.workers[name]
		ws := obs.WorkerSample{
			Name: name, Done: wp.done, Busy: wp.busy, Slots: wp.slots,
			SinceSeen: time.Since(wp.seen).Seconds(),
		}
		if elapsed > 0 {
			ws.Throughput = float64(wp.done) / elapsed
		}
		d.Workers = append(d.Workers, ws)
	}
	return d
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// jobPhase is a dispatch state of one job.
type jobPhase int

const (
	jobPending jobPhase = iota
	jobGranted
	jobDone
)

// jobState is the coordinator's view of one open (pending or granted) job.
type jobState struct {
	job      Job
	specJSON []byte
	phase    jobPhase
	attempt  int64
	worker   string    // grantee while granted
	created  time.Time // when the job was pulled from its source
	granted  time.Time // when the grant was sent
	deadline time.Time // JobTimeout while granted, and while re-dispatched
	announce time.Time // last announce while pending
	span     string    // trace span ID, minted at load, rides every message
	queueMS  float64   // load→grant latency of the winning attempt
}

// sweep is one RunStream's job table. A job lives in open, with its spec,
// only until it has a Record; after that done keeps what a late duplicate
// claim or result still needs (the attempt and grantee to re-send), so a
// stream's memory follows its window, not its length, and every per-tick
// pass ranges over the open jobs alone. order lists them as they were
// loaded: workers bid on the oldest announce they hold, so announcing in
// load order is what makes a sweep run first in, first out.
type sweep struct {
	open  map[int64]*jobState
	order []*jobState
	done  map[int64]jobGrant
	recs  []Record
	strs  map[string]string // one copy of each low-cardinality Record string
}

// intern returns the sweep's one copy of v. A decoded Record allocates its
// strings afresh; a sweep's scenario names, worker names and phases are a
// handful of values repeated once per job.
func (sw *sweep) intern(v string) string {
	if kept, ok := sw.strs[v]; ok {
		return kept
	}
	sw.strs[v] = v
	return v
}

// finish moves job s out of the open set with its Record.
func (c *Coordinator) finish(sw *sweep, s *jobState, rec Record) {
	c.moveJob(s.phase, jobDone)
	delete(sw.open, s.job.ID)
	i := slices.Index(sw.order, s)
	sw.order = slices.Delete(sw.order, i, i+1)
	sw.done[s.job.ID] = c.grantOf(s)
	sw.recs = append(sw.recs, rec)
}

// records returns the finished records in job-ID order.
func (sw *sweep) records() []Record {
	sort.Slice(sw.recs, func(i, k int) bool { return sw.recs[i].Job < sw.recs[k].Job })
	return sw.recs
}

// Run dispatches the jobs and blocks until every one has a Record or ctx
// is done. Records come back sorted by job ID; on cancellation the
// partial set is returned with ctx.Err(). Jobs that exhaust MaxAttempts
// get a synthetic failed Record rather than stalling the sweep.
func (c *Coordinator) Run(ctx context.Context, jobs []Job) ([]Record, error) {
	return c.RunStream(ctx, SliceJobs(jobs))
}

// RunStream is Run over an incremental work list: it keeps at most Window
// jobs in flight, pulling more from the source as results free slots, and
// blocks until the source is exhausted and every pulled job has a Record
// (or ctx is done). A job is announced when it is loaded, again when it is
// re-dispatched, and otherwise only on the Announce period; workers keep
// the announces and refill their own slots from them. The source is polled
// from one feeder goroutine of this call — one job ahead of the window,
// never concurrently, never after RunStream returns — so a source that
// blocks (a generator certifying its next candidate) delays refills but
// not the grants, results and re-dispatches of the jobs already loaded.
func (c *Coordinator) RunStream(ctx context.Context, src JobSource) ([]Record, error) {
	sw := &sweep{open: make(map[int64]*jobState), done: make(map[int64]jobGrant), strs: make(map[string]string)}

	feed := make(chan pulled)
	fctx, stopFeeder := context.WithCancel(ctx)
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		feedJobs(fctx, src, feed)
	}()
	defer func() {
		stopFeeder()
		feeder.Wait()
	}()

	exhausted := false
	tick := time.NewTicker(c.cfg.Announce)
	defer tick.Stop()
	for {
		c.drainHeartbeats()
		c.drainResults(sw)
		c.drainClaims(sw)
		c.redispatch(sw)
		if exhausted && len(sw.open) == 0 {
			return sw.records(), nil
		}
		c.greetJoined(sw)
		c.announcePending(sw)

		// The feeder is heard only while the window has room.
		next := feed
		if exhausted || len(sw.open) >= c.cfg.Window {
			next = nil
		}
		select {
		case <-ctx.Done():
			return sw.records(), ctx.Err()
		case p := <-next:
			// A failing source, or a malformed or duplicate job, aborts the
			// sweep — a streaming source is code, not input, and dispatching
			// around its bug would silently shrink the campaign.
			if p.err == nil && p.ok {
				p.err = c.load(sw, p.job, p.spec)
			}
			if p.err != nil {
				return sw.records(), p.err
			}
			exhausted = !p.ok
		case <-tick.C:
		case <-c.subClaim.NotifyC():
		case <-c.subRes.NotifyC():
		case <-c.subHB.NotifyC():
		case <-c.pubJob.NotifyC():
		case <-c.pubGrant.NotifyC():
		}
	}
}

// greetJoined tells a worker whose channel just came up what was said
// before it could hear: every pending job is due for its announce again
// when pubJob gained a channel, and every standing grant is sent again
// when pubGrant did — a worker may win a bid before its grant channel is
// built. Both messages are idempotent for the workers that had them. This
// is what starts a sweep that was loaded before its pool had joined, and
// what a worker joining mid-sweep bids on, without an Announce period.
func (c *Coordinator) greetJoined(sw *sweep) {
	jobs, grants := c.pubJob.Channels(), c.pubGrant.Channels()
	joinedJob, joinedGrant := jobs > c.jobChans, grants > c.grantChans
	c.jobChans, c.grantChans = jobs, grants
	if !joinedJob && !joinedGrant {
		return
	}
	for _, s := range sw.order {
		switch {
		case s.phase == jobPending && joinedJob:
			s.announce = time.Time{}
		case s.phase == jobGranted && joinedGrant:
			c.sendGrant(c.grantOf(s))
		}
	}
}

// pulled is one answer of a job source: a job with its spec marshaled, the
// end of the list (!ok), or the error that aborts the sweep.
type pulled struct {
	job  Job
	spec []byte
	ok   bool
	err  error
}

// feedJobs polls src and hands each answer to feed, until the source ends
// or fails or ctx is done. It is RunStream's feeder: the one goroutine that
// ever calls src.Next, and the one place a slow source is waited for.
func feedJobs(ctx context.Context, src JobSource, feed chan<- pulled) {
	for {
		var p pulled
		j, ok, err := src.Next(ctx)
		switch {
		case err != nil:
			p.err = fmt.Errorf("dist: job source: %w", err)
		case ok:
			p.job, p.ok = j, true
			if p.spec, err = scenario.MarshalSpec(j.Spec); err != nil {
				p.err = fmt.Errorf("dist: %s: %w", j, err)
			}
		}
		select {
		case feed <- p:
		case <-ctx.Done():
			return
		}
		if !p.ok || p.err != nil {
			return
		}
	}
}

// load puts a job pulled from the source into the open set, pending its
// first announce.
func (c *Coordinator) load(sw *sweep, j Job, specJSON []byte) error {
	_, dup := sw.open[j.ID]
	if _, dupDone := sw.done[j.ID]; dup || dupDone {
		return fmt.Errorf("dist: duplicate job id %d", j.ID)
	}
	s := &jobState{
		job: j, specJSON: specJSON, attempt: 1,
		created: time.Now(), span: obs.MintSpanID(),
	}
	sw.open[j.ID] = s
	sw.order = append(sw.order, s)
	c.moveJob(-1, jobPending)
	c.noteAttempt(false)
	return nil
}

func (c *Coordinator) drainHeartbeats() {
	for {
		hb, ok, err := c.subHB.Poll()
		if err != nil {
			continue // shape mismatch from a foreign build: skip
		}
		if !ok {
			return
		}
		c.noteHeartbeat(hb.Value)
	}
}

// drainResults records finished jobs; the first Record per job wins and
// stale attempts are accepted — the work is identical.
func (c *Coordinator) drainResults(sw *sweep) {
	for {
		r, ok, err := c.subRes.Poll()
		if err != nil {
			continue // shape mismatch from a foreign build: skip
		}
		if !ok {
			return
		}
		res := r.Value
		if res.Sweep != c.cfg.Sweep {
			continue
		}
		s := sw.open[res.Job]
		if s == nil {
			if _, done := sw.done[res.Job]; done {
				c.ack(res.Job) // duplicate re-send: re-ack so the worker stops
			}
			continue
		}
		var rec Record
		if err := unmarshalRecord(res.Record, &rec); err != nil {
			continue // corrupt record: let the job be re-dispatched
		}
		// The coordinator owns the span and the queue phase; the worker
		// stamped DispatchMS on its own clock before marshaling.
		rec.Span = s.span
		rec.QueueMS = s.queueMS
		// Keep one copy of the strings that repeat job after job. A
		// generated job's title is its own, so the table would only grow
		// with it: that one is shared with the job's spec instead.
		rec.Scenario, rec.Worker, rec.Phase = sw.intern(rec.Scenario), sw.intern(rec.Worker), sw.intern(rec.Phase)
		if rec.Title == s.job.Spec.Title {
			rec.Title = s.job.Spec.Title
		}
		c.finish(sw, s, rec)
		c.ack(res.Job)
		c.noteWorkerDone(res.Worker)
		c.log.Info("job done",
			"job", res.Job, "worker", res.Worker, "attempt", res.Attempt,
			"span", s.span, "wall_s", rec.WallSec, "passed", rec.Passed)
	}
}

// drainClaims grants each claimed pending job to its first bidder; claims
// for already-granted or done jobs re-send the standing grant so losing
// bidders release their slot.
func (c *Coordinator) drainClaims(sw *sweep) {
	for {
		r, ok, err := c.subClaim.Poll()
		if err != nil {
			continue
		}
		if !ok {
			return
		}
		claim := r.Value
		if claim.Sweep != c.cfg.Sweep {
			continue
		}
		s := sw.open[claim.Job]
		if s == nil {
			if g, done := sw.done[claim.Job]; done {
				// Idempotent re-send releases the loser. A job recorded while
				// it was pending (a stale attempt's result, or given up) has no
				// grantee; the empty name still tells every worker holding its
				// announce that the job went elsewhere.
				c.sendGrant(g)
			}
			continue
		}
		switch s.phase {
		case jobPending:
			if claim.Attempt != s.attempt {
				// A bid on a stale announce (the job was re-dispatched while
				// the worker still held the old one) ties up the bidder's slot
				// until its claim expires. Saying the current attempt again
				// makes the worker renew the bid at once.
				c.announce(s, time.Now())
				continue
			}
			c.moveJob(s.phase, jobGranted)
			s.phase = jobGranted
			s.worker = claim.Worker
			s.granted = time.Now()
			s.deadline = s.granted.Add(c.cfg.JobTimeout)
			// The queue phase ends here: the job waited from load until a
			// worker won it. Re-dispatches overwrite it — the latency that
			// matters is the attempt that went on to run.
			queued := s.granted.Sub(s.created)
			// Fractional ms: in-process grants land in microseconds, and a
			// truncated 0 would hide the report's DISP-MS column.
			s.queueMS = float64(queued.Microseconds()) / 1e3
			c.spans.Observe(obs.PhaseQueue, queued)
			c.sendGrant(c.grantOf(s))
			c.log.Info("job granted",
				"job", s.job.ID, "worker", s.worker, "attempt", s.attempt,
				"span", s.span, "queue_ms", s.queueMS)
		case jobGranted:
			c.sendGrant(c.grantOf(s)) // idempotent re-send releases the loser
		}
	}
}

// ack confirms a recorded result. A lost ack only costs another result
// re-send, which is re-acked here — both messages are idempotent.
func (c *Coordinator) ack(job int64) {
	_ = c.pubAck.Update(0, jobAck{Sweep: c.cfg.Sweep, Job: job})
}

// grantOf is the grant message for job s as it stands.
func (c *Coordinator) grantOf(s *jobState) jobGrant {
	return jobGrant{Sweep: c.cfg.Sweep, Job: s.job.ID, Attempt: s.attempt, Worker: s.worker}
}

func (c *Coordinator) sendGrant(grant jobGrant) {
	// A failed grant is recovered by JobTimeout; no subscribers means the
	// last worker vanished between claim and grant.
	_ = c.pubGrant.Update(0, grant)
}

// redispatch returns granted jobs to pending when their worker died or
// the job outlived its timeout, failing them outright past MaxAttempts.
// A re-dispatched job that stays unclaimed for another JobTimeout burns
// an attempt too — a sole worker stuck running the job ignores its
// re-announces, and the sweep must fail the job rather than hang.
// First-attempt pending jobs never expire: an empty segment is a pool
// that has not joined yet, not a failure.
func (c *Coordinator) redispatch(sw *sweep) {
	now := time.Now()
	// grantSlack is how long after a grant the grantee's heartbeats may
	// still omit the job before the grant counts as lost: long enough
	// for grant delivery plus one beat, well under any real job.
	grantSlack := 2 * c.cfg.Announce
	if grantSlack < 500*time.Millisecond {
		grantSlack = 500 * time.Millisecond
	}
	// Backwards, because finish takes a job out of sw.order mid-pass.
	for i := len(sw.order) - 1; i >= 0; i-- {
		s := sw.order[i]
		switch s.phase {
		case jobGranted:
			w := c.workers[s.worker]
			dead := w != nil && now.Sub(w.seen) > c.cfg.DeadAfter
			// Lost grant: the grantee beats on this sweep, its latest
			// beat postdates the grant by the slack, yet it never lists
			// the job — its claim expired before the grant arrived
			// (e.g. the grant channel was still being established), so
			// nobody is running this job. Without this check the sweep
			// stalls for the whole JobTimeout.
			lost := w != nil && w.sweep == c.cfg.Sweep &&
				w.seen.After(s.granted.Add(grantSlack)) && !w.working[s.job.ID]
			if !dead && !lost && now.Before(s.deadline) {
				continue
			}
			c.log.Warn("grant failed",
				"job", s.job.ID, "worker", s.worker, "attempt", s.attempt,
				"span", s.span, "dead", dead, "lost", lost,
				"timeout", !now.Before(s.deadline))
		case jobPending:
			if s.attempt == 1 || now.Before(s.deadline) {
				continue
			}
			c.log.Warn("re-dispatch unclaimed past deadline",
				"job", s.job.ID, "attempt", s.attempt, "span", s.span)
		}
		if int(s.attempt) >= c.cfg.MaxAttempts {
			c.finish(sw, s, Record{
				Job:      s.job.ID,
				Attempt:  s.attempt,
				Scenario: s.job.Spec.Name,
				Title:    s.job.Spec.Title,
				Seed:     s.job.Seed,
				Worker:   s.worker,
				Span:     s.span,
				Err:      fmt.Sprintf("dist: gave up after %d attempts (last worker %s)", s.attempt, s.worker),
			})
			continue
		}
		c.moveJob(s.phase, jobPending)
		s.phase = jobPending
		s.attempt++
		s.worker = ""
		s.deadline = now.Add(c.cfg.JobTimeout)
		s.announce = time.Time{} // re-announce immediately
		c.noteAttempt(true)
	}
}

// announcePending publishes, in load order, every pending job never
// announced or whose announce period elapsed.
func (c *Coordinator) announcePending(sw *sweep) {
	now := time.Now()
	for _, s := range sw.order {
		if s.phase == jobPending && now.Sub(s.announce) >= c.cfg.Announce {
			c.announce(s, now)
		}
	}
}

// announce publishes job s at its current attempt. ErrNoSubscribers just
// means no worker has joined yet, and ErrWindowFull that a worker's
// Reliable announce window is saturated (the update reached every other
// worker) — the next period retries either way, and announces are
// idempotent.
func (c *Coordinator) announce(s *jobState, now time.Time) {
	s.announce = now
	c.progMu.Lock()
	c.prog.announces++
	c.progMu.Unlock()
	_ = c.pubJob.Update(0, jobAnnounce{
		Sweep:   c.cfg.Sweep,
		Job:     s.job.ID,
		Attempt: s.attempt,
		Seed:    s.job.Seed,
		Spec:    s.specJSON,
		Span:    s.span,
	})
}
