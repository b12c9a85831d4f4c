package dist

import (
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"codsim/cod"
	"codsim/internal/scenario"
	"codsim/internal/sim"
)

// startPool starts a coordinator and the named workers on one MemLAN and
// returns once WaitWorkers does: every coordinator→worker dispatch channel
// is up, so the one announce a job gets when it is loaded reaches every
// worker.
func startPool(t testing.TB, ccfg CoordinatorConfig, wcfg WorkerConfig, names ...string) (*Coordinator, context.Context) {
	t.Helper()
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), fastTimers())
	t.Cleanup(func() { fed.Close() })
	for _, name := range names {
		startWorker(t, fed, name, wcfg)
	}
	cnode, err := fed.Node("coord-node")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(cnode, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	if err := coord.WaitWorkers(ctx, names); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}
	return coord, ctx
}

// TestSweepNeverWaitsForReannounce runs 40 jobs through two one-slot
// workers under an Announce period far longer than the test: every job is
// said once, so each slot refill must come from the worker's backlog. The
// workers bid oldest first, so each one starts its jobs in load order.
func TestSweepNeverWaitsForReannounce(t *testing.T) {
	const n = 40
	var mu sync.Mutex
	var started []int64
	run := func(ctx context.Context, job Job, cfg sim.BatchConfig) Record {
		mu.Lock()
		started = append(started, job.ID)
		mu.Unlock()
		return stubRunner(0)(ctx, job, cfg)
	}
	ccfg := fastCoordinator()
	ccfg.Announce = time.Hour
	coord, ctx := startPool(t, ccfg,
		WorkerConfig{Slots: 1, Heartbeat: 25 * time.Millisecond, Run: run}, "w1", "w2")

	recs, err := coord.Run(ctx, testJobs(n))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("records = %d, want %d", len(recs), n)
	}
	if s := coord.Sample(); s.Announces != n || s.Attempts != n {
		t.Errorf("announces = %d, attempts = %d; want %d each (one announce per job, no period, no re-dispatch)",
			s.Announces, s.Attempts, n)
	}
	last := map[string]int64{"w1": -1, "w2": -1}
	for _, id := range started {
		w := recs[id].Worker
		if id <= last[w] {
			t.Errorf("%s started job %d after job %d: not in load order", w, id, last[w])
		}
		last[w] = id
	}
}

// TestAnnouncesStayNearOnePerJob is the announce storm's regression guard:
// over a sweep of N attempts the coordinator publishes at most one announce
// per attempt plus one window's worth per Announce period elapsed. Before
// workers kept a backlog it re-announced the whole window on every result,
// about Window announces per job.
func TestAnnouncesStayNearOnePerJob(t *testing.T) {
	const n = 600
	ccfg := fastCoordinator()
	coord, ctx := startPool(t, ccfg,
		WorkerConfig{Slots: 2, Heartbeat: 25 * time.Millisecond, Run: stubRunner(0)}, "w1", "w2")

	start := time.Now()
	recs, err := coord.Run(ctx, testJobs(n))
	periods := int64(time.Since(start) / ccfg.Announce)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != n {
		t.Fatalf("records = %d, want %d", len(recs), n)
	}
	s := coord.Sample()
	window := int64(ccfg.withDefaults().Window)
	if bound := s.Attempts + (periods+1)*window; s.Announces > bound {
		t.Errorf("%d announces for %d attempts over %d periods; want <= %d", s.Announces, s.Attempts, periods, bound)
	}
	t.Logf("%d jobs: %d attempts, %d announces, %d periods", n, s.Attempts, s.Announces, periods)
}

// rival is the coordinator's side of the protocol driven by hand, so a test
// decides what a worker hears and in what order.
type rival struct {
	pubJob   *cod.Pub[jobAnnounce]
	pubGrant *cod.Pub[jobGrant]
	subClaim *cod.Sub[jobClaim]
	spec     []byte
}

func newRival(t *testing.T, fed *cod.Federation) *rival {
	t.Helper()
	node, err := fed.Node("rival-node")
	if err != nil {
		t.Fatal(err)
	}
	r := &rival{}
	if r.pubJob, err = cod.Publish[jobAnnounce](node, coordinatorLP, ClassJob); err != nil {
		t.Fatal(err)
	}
	if r.pubGrant, err = cod.Publish[jobGrant](node, coordinatorLP, ClassGrant); err != nil {
		t.Fatal(err)
	}
	if r.subClaim, err = cod.Subscribe[jobClaim](node, coordinatorLP, ClassClaim, cod.Reliable(64)); err != nil {
		t.Fatal(err)
	}
	if r.spec, err = scenario.MarshalSpec(scenario.Classic()); err != nil {
		t.Fatal(err)
	}
	return r
}

// matched waits until one worker hears the rival and the rival hears it.
func (r *rival) matched(ctx context.Context, t *testing.T) {
	t.Helper()
	if err := r.pubJob.WaitChannels(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.pubGrant.WaitChannels(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.subClaim.WaitMatched(ctx); err != nil {
		t.Fatal(err)
	}
}

func (r *rival) announce(t *testing.T, sweep, job, attempt int64) {
	t.Helper()
	if err := r.pubJob.Update(0, jobAnnounce{Sweep: sweep, Job: job, Attempt: attempt, Spec: r.spec}); err != nil {
		t.Fatalf("announce job %d: %v", job, err)
	}
}

func (r *rival) grant(t *testing.T, sweep, job, attempt int64, worker string) {
	t.Helper()
	if err := r.pubGrant.Update(0, jobGrant{Sweep: sweep, Job: job, Attempt: attempt, Worker: worker}); err != nil {
		t.Fatalf("grant job %d: %v", job, err)
	}
}

// TestLostRaceBidsNextFromBacklog: a one-slot worker hears two announces,
// bids on the first and loses it to another worker. It must release that
// bid and bid on the second job it kept, with nothing announced again.
func TestLostRaceBidsNextFromBacklog(t *testing.T) {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), fastTimers())
	defer fed.Close()
	r := newRival(t, fed)
	startWorker(t, fed, "w1", WorkerConfig{Slots: 1, Heartbeat: 25 * time.Millisecond, Run: stubRunner(0)})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	r.matched(ctx, t)

	r.announce(t, 7, 0, 1)
	r.announce(t, 7, 1, 1)
	first, err := r.subClaim.Next(ctx)
	if err != nil {
		t.Fatalf("first claim: %v", err)
	}
	if first.Value.Job != 0 {
		t.Fatalf("first claim is for job %d, want the oldest announce, job 0", first.Value.Job)
	}
	r.grant(t, 7, 0, 1, "someone-else")
	next, err := r.subClaim.Next(ctx)
	if err != nil {
		t.Fatalf("no claim from the backlog after the lost race: %v", err)
	}
	if next.Value.Job != 1 || next.Value.Attempt != 1 || next.Value.Worker != "w1" {
		t.Fatalf("claim after the lost race = %+v, want job 1 attempt 1 from w1", next.Value)
	}
}

// waitPending blocks until sub holds at least n undelivered updates.
func waitPending[T any](ctx context.Context, t *testing.T, sub *cod.Sub[T], n int) {
	t.Helper()
	for sub.Pending() < n {
		select {
		case <-sub.NotifyC():
		case <-ctx.Done():
			t.Fatalf("%d updates pending, want %d: %v", sub.Pending(), n, ctx.Err())
		}
	}
}

// TestBacklogBookkeeping steps a worker's loop by hand through the
// backlog's rules: one entry per job in arrival order, a re-dispatched
// attempt replaces the stale entry where it stands, only a grant for the
// held attempt or a later one prunes, the cap holds, and a new sweep starts
// from nothing.
func TestBacklogBookkeeping(t *testing.T) {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), fastTimers())
	defer fed.Close()
	r := newRival(t, fed)
	node, err := fed.Node("w1-node")
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorker(node, WorkerConfig{Name: "w1", Slots: 1, Run: stubRunner(0)})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	r.matched(ctx, t)
	if err := w.pubClaim.WaitChannels(ctx, 1); err != nil {
		t.Fatal(err)
	}

	expect := func(step string, want ...[2]int64) {
		t.Helper()
		var got [][2]int64
		for _, a := range w.backlog {
			got = append(got, [2]int64{a.Job, a.Attempt})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: backlog (job, attempt) = %v, want %v", step, got, want)
		}
	}
	hear := func(announces, grants int) {
		t.Helper()
		waitPending(ctx, t, w.subJob, announces)
		waitPending(ctx, t, w.subGrant, grants)
		w.drainAnnounces()
		w.drainGrants(ctx)
	}

	for job := int64(0); job < 3; job++ {
		r.announce(t, 7, job, 1)
	}
	r.announce(t, 7, 1, 1) // the period's repeat changes nothing
	hear(4, 0)
	expect("three announces", [2]int64{0, 1}, [2]int64{1, 1}, [2]int64{2, 1})

	w.bidBacklog()
	expect("one slot, one bid", [2]int64{1, 1}, [2]int64{2, 1})
	if claim, err := r.subClaim.Next(ctx); err != nil || claim.Value.Job != 0 {
		t.Fatalf("bid = %+v, %v; want job 0", claim.Value, err)
	}
	if w.claimed != 1 || w.free() != 0 {
		t.Fatalf("claimed = %d, free = %d after the bid; want 1, 0", w.claimed, w.free())
	}

	r.announce(t, 7, 1, 2)
	hear(1, 0)
	expect("re-dispatched job 1", [2]int64{1, 2}, [2]int64{2, 1})

	r.grant(t, 7, 1, 1, "someone-else")
	hear(0, 1)
	expect("late grant of the older attempt", [2]int64{1, 2}, [2]int64{2, 1})

	r.grant(t, 7, 1, 2, "someone-else")
	hear(0, 1)
	expect("grant of the held attempt", [2]int64{2, 1})

	for job := int64(100); job < 100+2*announceDepth; job++ {
		w.backlog = stash(w.backlog, jobAnnounce{Sweep: 7, Job: job, Attempt: 1})
	}
	if len(w.backlog) != announceDepth {
		t.Fatalf("backlog holds %d entries, want the cap %d", len(w.backlog), announceDepth)
	}
	if w.backlog[0].Job != 2 {
		t.Fatalf("a full backlog kept job %d at its head, want the oldest, job 2", w.backlog[0].Job)
	}

	r.announce(t, 8, 0, 1)
	hear(1, 0)
	expect("new sweep", [2]int64{0, 1})
	if w.sweep != 8 || w.claimed != 0 || len(w.jobs) != 0 || w.free() != 1 {
		t.Fatalf("after the sweep change: sweep %d, claimed %d, %d jobs, free %d; want 8, 0, 0, 1",
			w.sweep, w.claimed, len(w.jobs), w.free())
	}
}

// TestNoClaimGoesUnanswered: a bid on an attempt the coordinator has moved
// past must draw an announce of the current attempt at once, which is what
// makes the bidder renew, and a bid on a finished job a grant to someone
// else. Dropped silently, either bid held the worker's slot until its claim
// expired.
func TestNoClaimGoesUnanswered(t *testing.T) {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), fastTimers())
	defer fed.Close()
	cnode, err := fed.Node("coord-node")
	if err != nil {
		t.Fatal(err)
	}
	ccfg := fastCoordinator()
	ccfg.Announce = time.Hour // nothing here may come from the period
	coord, err := NewCoordinator(cnode, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	wnode, err := fed.Node("w1-node")
	if err != nil {
		t.Fatal(err)
	}
	pubClaim, err := cod.Publish[jobClaim](wnode, "w1", ClassClaim)
	if err != nil {
		t.Fatal(err)
	}
	subJob, err := cod.Subscribe[jobAnnounce](wnode, "w1", ClassJob, cod.Reliable(announceDepth))
	if err != nil {
		t.Fatal(err)
	}
	subGrant, err := cod.Subscribe[jobGrant](wnode, "w1", ClassGrant, cod.Reliable(announceDepth))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := pubClaim.WaitChannels(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := coord.pubJob.WaitChannels(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := coord.pubGrant.WaitChannels(ctx, 1); err != nil {
		t.Fatal(err)
	}

	// Job 5 was re-dispatched to attempt 2 and announced a moment ago.
	s := &jobState{job: testJobs(6)[5], attempt: 2, announce: time.Now(), created: time.Now()}
	sw := &sweep{open: map[int64]*jobState{5: s}, order: []*jobState{s}, done: map[int64]jobGrant{}}
	if err := pubClaim.Update(0, jobClaim{Sweep: ccfg.Sweep, Job: 5, Attempt: 1, Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	waitPending(ctx, t, coord.subClaim, 1)
	coord.drainClaims(sw)
	if s.phase != jobPending {
		t.Fatalf("the stale claim was granted (phase %d)", s.phase)
	}
	ann, err := subJob.Next(ctx)
	if err != nil {
		t.Fatalf("no announce answered the stale claim: %v", err)
	}
	if ann.Value.Job != 5 || ann.Value.Attempt != 2 {
		t.Fatalf("announce = job %d attempt %d, want job 5 attempt 2", ann.Value.Job, ann.Value.Attempt)
	}

	if err := pubClaim.Update(0, jobClaim{Sweep: ccfg.Sweep, Job: 5, Attempt: 2, Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	waitPending(ctx, t, coord.subClaim, 1)
	coord.drainClaims(sw)
	if s.phase != jobGranted || s.worker != "w1" {
		t.Fatalf("the renewed claim was not granted: phase %d worker %q", s.phase, s.worker)
	}
	if g, err := subGrant.Next(ctx); err != nil || g.Value.Job != 5 || g.Value.Worker != "w1" {
		t.Fatalf("grant = %+v, %v; want job 5 to w1", g.Value, err)
	}

	// Job 9 was recorded while pending at attempt 2 (the first attempt's
	// result came late), so it has no grantee. A worker still holding its
	// announce bids; the answer must release that bid too.
	sw.done[9] = jobGrant{Sweep: ccfg.Sweep, Job: 9, Attempt: 2}
	if err := pubClaim.Update(0, jobClaim{Sweep: ccfg.Sweep, Job: 9, Attempt: 2, Worker: "w1"}); err != nil {
		t.Fatal(err)
	}
	waitPending(ctx, t, coord.subClaim, 1)
	coord.drainClaims(sw)
	if g, err := subGrant.Next(ctx); err != nil || g.Value.Job != 9 || g.Value.Worker == "w1" {
		t.Fatalf("grant = %+v, %v; want job 9 to someone other than w1", g.Value, err)
	}
}
