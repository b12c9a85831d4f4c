package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"codsim/cod"
	"codsim/internal/clock"
	"codsim/internal/obs"
	"codsim/internal/scenario"
	"codsim/internal/sim"
	"codsim/internal/trace"
)

// The coordinator's periods and bounds (package doc). A dead worker is
// found within a bookkeeping tick of deadAfter, six of the workers'
// default beats. A grant counts as lost when the grantee's beats still
// omit it grantSlack after it was sent.
const (
	checkPeriod = 250 * time.Millisecond
	deadAfter   = 3 * time.Second
	grantSlack  = 2 * checkPeriod
	maxAttempts = 3
	window      = 64
)

// CoordinatorConfig configures a coordinator, which reads time from its
// node's clock.
type CoordinatorConfig struct {
	// Sweep identifies this work list on the segment; workers key their
	// job state by it, so two sweeps reusing job IDs never mix. 0 draws
	// a random one.
	Sweep int64
	// JobTimeout re-dispatches a granted job that has produced no result
	// after this long, even from a live worker (default 10 min; a full
	// federation run at timescale 1 is slow, headless shards are not).
	JobTimeout time.Duration
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
		c.Sweep = 1 + rand.Int64N(math.MaxInt64)
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 10 * time.Minute
	}
	return c
}

// workerInfo is the coordinator's view of one worker, from its last
// heartbeat.
type workerInfo struct {
	seen    time.Time // when the last heartbeat arrived
	sweep   int64     // the sweep that heartbeat reported
	slots   int64
	busy    int64 // runs on the worker's slots, of any sweep
	working map[int64]bool
	run     runConfig // how the worker flies, as it declared
}

// Coordinator owns a sweep's work list: it grants jobs to free worker
// slots, collects results, and re-dispatches work lost to dead or stalled
// workers. One coordinator per segment at a time.
type Coordinator struct {
	cfg   CoordinatorConfig
	log   *slog.Logger
	spans *obs.Spans
	clock clock.Clock

	pubGrant *cod.Pub[jobGrant]
	pubAck   *cod.Pub[jobAck]
	subRes   *cod.Sub[jobResult]
	subHB    *cod.Sub[heartbeat]

	workers map[string]*workerInfo
	// grantChans is pubGrant's channel count as the last pass saw it, to
	// tell a worker joining from one leaving.
	grantChans int

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
	grants       int64 // grant publications, each to every worker
	answered     int64 // jobs of the last sweep recorded from their answer
	audited      int64 // jobs of the last sweep dispatched to audit theirs
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
	clk := node.Backbone().Clock()
	c := &Coordinator{
		cfg:     cfg,
		log:     cfg.logger(),
		spans:   cfg.Spans,
		clock:   clk,
		workers: make(map[string]*workerInfo),
		prog:    progress{start: clk.Now(), workers: make(map[string]*workerProg)},
	}
	// Subscriptions first: a worker's CB answers them by dialing this
	// node, and then answers the publications' solicits over that link, at
	// once and without a broadcast, even when an earlier coordinator still
	// serves its subscriptions.
	//
	// Results are must-not-lose: a Reliable window pushes saturation back
	// to the workers (whose re-send loops retry) instead of dropping a
	// finished run's record. Heartbeats are pure state —
	// LatestValue keeps the newest beat per worker (each worker is its
	// own virtual channel) under any backlog.
	var err error
	if c.subRes, err = cod.Subscribe[jobResult](node, coordinatorLP, ClassResult, cod.Reliable(1024)); err != nil {
		return nil, fmt.Errorf("dist: coordinator: %w", err)
	}
	if c.subHB, err = cod.Subscribe[heartbeat](node, coordinatorLP, ClassHeartbeat, cod.WithQueue(256), cod.LatestValue()); err != nil {
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
	if c.pubGrant != nil {
		errs = append(errs, c.pubGrant.Close())
	}
	if c.pubAck != nil {
		errs = append(errs, c.pubAck.Close())
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
// and its first grants reach all of it. A worker beats the
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
		c.pubGrant.WaitChannels, c.pubAck.WaitChannels,
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
	w := c.workers[hb.Worker]
	if w == nil {
		w = &workerInfo{working: make(map[int64]bool)}
		c.workers[hb.Worker] = w
	}
	if hb.Sweep != c.cfg.Sweep && hb.Busy > 0 && (hb.Sweep != w.sweep || hb.Busy != w.busy) {
		c.log.Info("worker busy with another sweep", "worker", hb.Worker, "its_sweep", hb.Sweep, "busy", hb.Busy)
	}
	clear(w.working)
	for _, id := range hb.Working {
		w.working[id] = true
	}
	now := c.clock.Now()
	w.seen, w.sweep, w.run = now, hb.Sweep, hb.runConfig()
	w.slots, w.busy = hb.Slots, hb.Busy

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
		Grants:       c.prog.grants,
	}
	now := c.clock.Now()
	elapsed := now.Sub(c.prog.start).Seconds()
	names := make([]string, 0, len(c.prog.workers))
	for name := range c.prog.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		wp := c.prog.workers[name]
		ws := obs.WorkerSample{
			Name: name, Done: wp.done, Busy: wp.busy, Slots: wp.slots,
			SinceSeen: now.Sub(wp.seen).Seconds(),
		}
		if elapsed > 0 {
			ws.Throughput = float64(wp.done) / elapsed
		}
		d.Workers = append(d.Workers, ws)
	}
	return d
}

// Answered reports how many jobs of the sweep RunStream ran last (or is
// running) were recorded from their certification's answer without a
// dispatch, and how many were dispatched to audit their answer (see
// load). Safe to call from any goroutine.
func (c *Coordinator) Answered() (answered, audited int64) {
	c.progMu.Lock()
	defer c.progMu.Unlock()
	return c.prog.answered, c.prog.audited
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
	worker   string        // grantee while granted
	created  time.Time     // when the job was pulled from its source
	granted  time.Time     // when the grant was sent
	deadline time.Time     // JobTimeout while granted, and while re-dispatched
	span     string        // trace span ID, minted at load, rides every grant
	queueMS  float64       // load→grant latency of the winning attempt
	audit    *trace.Answer // the answer an audited job's Record is held to
}

// sweep is one RunStream's job table. A job lives in open, with its spec,
// only until it has a Record; after that done keeps its ID, which is all
// a late duplicate result needs to be re-acked, so a stream's memory
// follows its window, not its length, and every per-tick pass ranges over
// the open jobs alone. order lists them as they were loaded, the order
// they are granted in: a sweep runs first in, first out.
type sweep struct {
	open  map[int64]*jobState
	order []*jobState
	done  map[int64]struct{}
	recs  []Record
	strs  map[string]string // one copy of each low-cardinality Record string
	mixed bool              // the workers' run configs differ: warned once
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
	sw.done[s.job.ID] = struct{}{}
	sw.recs = append(sw.recs, rec)
}

// records returns the finished records in job-ID order.
func (sw *sweep) records() []Record {
	sort.Slice(sw.recs, func(i, k int) bool { return sw.recs[i].Job < sw.recs[k].Job })
	return sw.recs
}

// Run dispatches the jobs and blocks until every one has a Record or ctx
// is done. Records come back sorted by job ID; on cancellation the
// partial set is returned with ctx.Err(). Jobs that exhaust maxAttempts
// get a synthetic failed Record rather than stalling the sweep.
func (c *Coordinator) Run(ctx context.Context, jobs []Job) ([]Record, error) {
	return c.RunStream(ctx, SliceJobs(jobs))
}

// RunStream is Run over an incremental work list: it keeps at most window
// jobs in flight, pulling more from the source as results free slots, and
// blocks until the source is exhausted and every pulled job has a Record
// (or ctx is done). A job is granted as soon as a live worker has a free
// slot for it, from the pass after its load on. The source is polled
// from one feeder goroutine of this call — one job ahead of the window,
// never concurrently, never after RunStream returns — so a source that
// blocks (a generator certifying its next candidate) delays refills but
// not the grants, results and re-dispatches of the jobs already loaded.
// A job its certification answered is recorded at load and never takes a
// place in the window (the package doc's "Answered jobs").
func (c *Coordinator) RunStream(ctx context.Context, src JobSource) ([]Record, error) {
	sw := &sweep{open: make(map[int64]*jobState), done: make(map[int64]struct{}), strs: make(map[string]string)}
	c.progMu.Lock()
	c.prog.answered, c.prog.audited = 0, 0
	c.progMu.Unlock()

	feed := make(chan pulled)
	fctx, stopFeeder := context.WithCancel(ctx)
	var feeder sync.WaitGroup
	feeder.Add(1)
	go func() {
		defer feeder.Done()
		c.feedJobs(fctx, src, feed)
	}()
	defer func() {
		stopFeeder()
		feeder.Wait()
	}()

	exhausted := false
	tick := c.clock.NewTimer(checkPeriod)
	defer tick.Stop()
	for {
		c.drainHeartbeats()
		c.drainResults(sw)
		c.redispatch(sw)
		if exhausted && len(sw.open) == 0 {
			return sw.records(), nil
		}
		c.greetJoined(sw)
		c.dispatch(sw)

		// The feeder is heard only while the window has room.
		next := feed
		if exhausted || len(sw.open) >= window {
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
				p.err = c.load(sw, p)
			}
			if p.err != nil {
				return sw.records(), p.err
			}
			exhausted = !p.ok
		case <-tick.C():
			tick.Reset(checkPeriod)
		case <-c.subRes.NotifyC():
		case <-c.subHB.NotifyC():
		case <-c.pubGrant.NotifyC():
		}
	}
}

// greetJoined sends every standing grant again when pubGrant gained a
// channel: a worker is granted work from its first beat, which may come
// before its grant channel is built. Grants are idempotent for the
// workers that had them. This is what starts the jobs granted to a worker
// that joined mid-sweep, without waiting for a lost-grant verdict.
func (c *Coordinator) greetJoined(sw *sweep) {
	grants := c.pubGrant.Channels()
	joined := grants > c.grantChans
	c.grantChans = grants
	if !joined {
		return
	}
	for _, s := range sw.order {
		if s.phase == jobGranted {
			c.sendGrant(s)
		}
	}
}

// pulled is one answer of a job source: a job with its spec marshaled and
// the answer its certification parked for it, if any (answered, taken in
// took); the end of the list (!ok); or the error that aborts the sweep.
type pulled struct {
	job      Job
	spec     []byte
	answer   trace.Answer
	answered bool
	took     time.Duration
	ok       bool
	err      error
}

// feedJobs polls src and hands each answer to feed, until the source ends
// or fails or ctx is done. It is RunStream's feeder: the one goroutine that
// ever calls src.Next, and the one place a slow source is waited for. It
// takes each job's parked answer (trace.Take) by the spec bytes it
// marshals for the grant anyway.
func (c *Coordinator) feedJobs(ctx context.Context, src JobSource, feed chan<- pulled) {
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
			} else {
				began := c.clock.Now()
				p.answer, p.answered = trace.Take(p.spec)
				p.took = c.clock.Now().Sub(began)
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
// first grant — unless its certification answered it and the answer
// stands for the pool's flight (answerable). Then an unaudited job is
// recorded from the answer at once, and never dispatched; an audited one
// is dispatched as usual, holding the answer its Record must match.
func (c *Coordinator) load(sw *sweep, p pulled) error {
	j := p.job
	_, dup := sw.open[j.ID]
	if _, dupDone := sw.done[j.ID]; dup || dupDone {
		return fmt.Errorf("dist: duplicate job id %d", j.ID)
	}
	var audit *trace.Answer
	if p.answered && c.answerable(sw, p.answer, j.Spec) {
		c.progMu.Lock()
		if p.answer.Audit != "" {
			audit = &p.answer
			c.prog.audited++
		} else {
			c.prog.answered++
		}
		c.progMu.Unlock()
		if audit == nil {
			rec := answerRecord(j, p.answer)
			rec.WallSec = p.took.Seconds()
			rec.Scenario, rec.Phase = sw.intern(rec.Scenario), sw.intern(rec.Phase)
			sw.done[j.ID] = struct{}{}
			sw.recs = append(sw.recs, rec)
			c.moveJob(-1, jobDone)
			return nil
		}
	}
	s := &jobState{
		job: j, specJSON: p.spec, attempt: 1, audit: audit,
		created: c.clock.Now(), span: obs.MintSpanID(),
	}
	sw.open[j.ID] = s
	sw.order = append(sw.order, s)
	c.moveJob(-1, jobPending)
	c.noteAttempt(false)
	return nil
}

// answerable reports whether answer a stands for the flight of spec in
// this pool: at least one worker is live, and every live worker declared
// one run config under which a stands (runConfig.stands). Workers that
// declare different configs fly different exams; then nothing is
// answered, and the sweep says so once.
func (c *Coordinator) answerable(sw *sweep, a trace.Answer, spec scenario.Spec) bool {
	now := c.clock.Now()
	var run runConfig
	live := 0
	for _, w := range c.workers {
		if now.Sub(w.seen) > deadAfter {
			continue
		}
		if live > 0 && w.run != run {
			c.warnMixed(sw, now)
			return false
		}
		run = w.run
		live++
	}
	return live > 0 && run.stands(a, spec)
}

// warnMixed logs, once a sweep, that the live workers declare different
// run configs, naming each with its own.
func (c *Coordinator) warnMixed(sw *sweep, now time.Time) {
	if sw.mixed {
		return
	}
	sw.mixed = true
	names := make([]string, 0, len(c.workers))
	for name, w := range c.workers {
		if now.Sub(w.seen) <= deadAfter {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	configs := make([]string, len(names))
	for i, name := range names {
		configs[i] = fmt.Sprintf("%s: %s", name, c.workers[name].run)
	}
	c.log.Warn("workers fly different run configs: every job flies, none is answered from its certification",
		"workers", strings.Join(configs, "; "))
}

// answerRecord is job j's Record made from its certification's answer:
// what a worker's flight would have recorded, with no worker, attempt or
// wall time.
func answerRecord(j Job, a trace.Answer) Record {
	res := a.Result
	return NewRecord(j, sim.BatchResult{
		Scenario: res.Scenario, Title: j.Spec.Title,
		State: res.State, Passed: res.Passed, Alarms: res.Alarms,
	}, "")
}

// holdTo fails rec, the flight of an audited job, unless it matches the
// job's answer a on every field a Record keeps of a run: the answer came
// from a verdict-cache row that no longer says what the kernel flies.
func holdTo(rec *Record, j Job, a trace.Answer) {
	var err error
	if rec.Err != "" {
		err = fmt.Errorf("dist: %s is stale: its flight failed (%s): %w", a.Audit, rec.Err, trace.ErrStaleAnswer)
	} else {
		row := answerRecord(j, a)
		var diff []string
		field := func(name string, flown, row any) {
			if flown != row {
				diff = append(diff, fmt.Sprintf("%s %v (row %v)", name, flown, row))
			}
		}
		field("scenario", rec.Scenario, row.Scenario)
		field("passed", rec.Passed, row.Passed)
		field("score", rec.Score, row.Score)
		field("phase", rec.Phase, row.Phase)
		field("sim-seconds", rec.SimSec, row.SimSec)
		field("alarms", rec.Alarms, row.Alarms)
		if len(diff) == 0 {
			return
		}
		err = fmt.Errorf("dist: %s is stale: the flight gave %s: %w", a.Audit, strings.Join(diff, ", "), trace.ErrStaleAnswer)
	}
	rec.Passed, rec.Err = false, err.Error()
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
		if s.audit != nil {
			holdTo(&rec, s.job, *s.audit)
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

// dispatch grants the pending jobs, in load order, each to the live worker
// with the most free slots (ties to the first name), until none has one.
func (c *Coordinator) dispatch(sw *sweep) {
	now := c.clock.Now()
	for _, s := range sw.order {
		if s.phase != jobPending {
			continue
		}
		worker := c.freest(sw, now)
		if worker == "" {
			return
		}
		c.moveJob(s.phase, jobGranted)
		s.phase = jobGranted
		s.worker = worker
		s.granted = now
		s.deadline = now.Add(c.cfg.JobTimeout)
		// The queue phase ends here: the job waited from load until a slot
		// took it. Re-dispatches overwrite it — the latency that matters is
		// the attempt that went on to run. Nanoseconds, because an idle
		// pool grants a job on the pass after its load.
		queued := now.Sub(s.created)
		s.queueMS = float64(queued.Nanoseconds()) / 1e6
		c.spans.Observe(obs.PhaseQueue, queued)
		c.sendGrant(s)
		c.log.Info("job granted",
			"job", s.job.ID, "worker", worker, "attempt", s.attempt,
			"span", s.span, "queue_ms", s.queueMS)
	}
}

// freest names the live worker with the most free slots, ties to the
// first name, or "" when no live worker has one. A worker's free slots are
// its declared slots less the runs its last beat reported, of any sweep,
// and less the grants of this sweep to it that the beat has not heard.
func (c *Coordinator) freest(sw *sweep, now time.Time) string {
	best, most := "", int64(0)
	for name, w := range c.workers {
		if now.Sub(w.seen) > deadAfter {
			continue
		}
		free := w.slots - w.busy
		for _, s := range sw.order {
			if s.phase == jobGranted && s.worker == name && !c.heard(w, s) {
				free--
			}
		}
		if free > most || (free == most && name < best) {
			best, most = name, free
		}
	}
	return best
}

// heard reports whether the last beat of worker w lists job s: the beat
// counts the grant's run in its Busy from then on (or the run has ended).
func (c *Coordinator) heard(w *workerInfo, s *jobState) bool {
	return w.sweep == c.cfg.Sweep && w.working[s.job.ID]
}

// ack confirms a recorded result. A lost ack only costs another result
// re-send, which is re-acked here — both messages are idempotent.
func (c *Coordinator) ack(job int64) {
	_ = c.pubAck.Update(0, jobAck{Sweep: c.cfg.Sweep, Job: job})
}

// sendGrant publishes job s's grant as it stands. A grant that reaches no
// grantee is recovered by re-dispatch: the grantee's beats never list the
// job, or it dies, or the job outlives JobTimeout.
func (c *Coordinator) sendGrant(s *jobState) {
	c.progMu.Lock()
	c.prog.grants++
	c.progMu.Unlock()
	_ = c.pubGrant.Update(0, jobGrant{
		Sweep:   c.cfg.Sweep,
		Job:     s.job.ID,
		Attempt: s.attempt,
		Worker:  s.worker,
		Seed:    s.job.Seed,
		Spec:    s.specJSON,
		Span:    s.span,
	})
}

// redispatch returns granted jobs to pending when their worker died or
// the job outlived its timeout, failing them outright past maxAttempts.
// A re-dispatched job that stays ungranted for another JobTimeout burns
// an attempt too — a sole worker whose slots are all stuck has none for
// it, and the sweep must fail the job rather than hang.
// First-attempt pending jobs never expire: an empty segment is a pool
// that has not joined yet, not a failure.
func (c *Coordinator) redispatch(sw *sweep) {
	now := c.clock.Now()
	// Backwards, because finish takes a job out of sw.order mid-pass.
	for i := len(sw.order) - 1; i >= 0; i-- {
		s := sw.order[i]
		switch s.phase {
		case jobGranted:
			w := c.workers[s.worker]
			dead := w != nil && now.Sub(w.seen) > deadAfter
			// Lost grant: the grantee's latest beat postdates the grant
			// by the slack, yet has not heard it, so the grant never
			// arrived (e.g. it went out before the grant channel was
			// built, and so did its re-send), and nobody is running this
			// job. Without this check the sweep stalls for the whole
			// JobTimeout.
			lost := w != nil && w.seen.After(s.granted.Add(grantSlack)) && !c.heard(w, s)
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
			c.log.Warn("re-dispatch ungranted past deadline",
				"job", s.job.ID, "attempt", s.attempt, "span", s.span)
		}
		if s.attempt >= maxAttempts {
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
		c.noteAttempt(true)
	}
}
