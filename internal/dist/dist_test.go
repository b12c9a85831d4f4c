package dist

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"codsim/cod"
	"codsim/internal/clock"
	"codsim/internal/scenario"
	"codsim/internal/sim"
	"codsim/internal/transport"
)

// waitFor polls cond until it holds, failing the test when ctx ends first.
// For coordinator state that has no edge to wait on.
func waitFor(ctx context.Context, t testing.TB, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !cond() {
		select {
		case <-tick.C:
		case <-ctx.Done():
			t.Fatalf("never %s: %v", what, ctx.Err())
		}
	}
}

// stubRunner returns an instantly-passing record, optionally delayed.
func stubRunner(delay time.Duration) Runner {
	return func(ctx context.Context, job Job, _ sim.BatchConfig) Record {
		if delay > 0 {
			select {
			case <-time.After(delay):
			case <-ctx.Done():
			}
		}
		return Record{
			Scenario: job.Spec.Name,
			Seed:     job.Seed,
			Passed:   true,
			Score:    100,
			Phase:    "complete",
		}
	}
}

// testJobs builds n jobs cycling through two cheap library specs.
func testJobs(n int) []Job {
	specs := []scenario.Spec{scenario.Classic(), scenario.BlindLift()}
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{ID: int64(i), Seed: int64(i%3 + 1), Spec: specs[i%2]}
	}
	return jobs
}

// startWorker spawns a worker on its own node and returns a stop func.
func startWorker(t testing.TB, fed *cod.Federation, name string, cfg WorkerConfig) context.CancelFunc {
	t.Helper()
	node, err := fed.Node(name + "-node")
	if err != nil {
		t.Fatalf("worker node %s: %v", name, err)
	}
	cfg.Name = name
	w, err := NewWorker(node, cfg)
	if err != nil {
		t.Fatalf("worker %s: %v", name, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = w.Run(ctx)
		_ = w.Close()
	}()
	t.Cleanup(func() { cancel(); wg.Wait() })
	return cancel
}

// TestCoordinatorWorkersMemLAN is the dist smoke: a coordinator and two
// in-process workers on one MemLAN run a 12-job sweep to completion.
func TestCoordinatorWorkersMemLAN(t *testing.T) {
	coord, ctx := startPool(t, eventFed(t), CoordinatorConfig{}, WorkerConfig{Slots: 2, Run: stubRunner(5 * time.Millisecond)}, "w1", "w2")
	jobs := testJobs(12)
	recs, err := coord.Run(ctx, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != 12 {
		t.Fatalf("records = %d, want 12", len(recs))
	}
	workers := map[string]int{}
	for i, r := range recs {
		if r.Job != int64(i) {
			t.Errorf("record %d: job %d (records must come back sorted)", i, r.Job)
		}
		if !r.Passed || r.Err != "" {
			t.Errorf("job %d: passed=%v err=%q", r.Job, r.Passed, r.Err)
		}
		if r.Scenario != jobs[i].Spec.Name || r.Seed != jobs[i].Seed {
			t.Errorf("job %d: scenario %s seed %d, want %s/%d",
				r.Job, r.Scenario, r.Seed, jobs[i].Spec.Name, jobs[i].Seed)
		}
		workers[r.Worker]++
	}
	for w := range workers {
		if w != "w1" && w != "w2" {
			t.Errorf("record from unknown worker %q", w)
		}
	}
}

// TestRedispatchOnWorkerDeath kills one of two workers mid-sweep — its
// runner never finishes — and asserts its granted jobs are re-dispatched
// to the survivor so the final report is complete. The pool runs on a
// manual clock, moved one survivor heartbeat at a time: the victim falls
// silent for deadAfter while the survivor is heard at every step.
func TestRedispatchOnWorkerDeath(t *testing.T) {
	fed, clk := clockFed(t)

	// The victim's runner blocks until the worker dies, so every job it
	// is granted is only recoverable through re-dispatch.
	victimStarted := make(chan int64, 16)
	victimRun := func(ctx context.Context, job Job, _ sim.BatchConfig) Record {
		victimStarted <- job.ID
		<-ctx.Done()
		return Record{Scenario: job.Spec.Name}
	}
	const beat = 500 * time.Millisecond // WorkerConfig.Heartbeat's default
	killVictim := startWorker(t, fed, "victim", WorkerConfig{Slots: 2, Run: victimRun})
	startWorker(t, fed, "survivor", WorkerConfig{Slots: 2, Run: stubRunner(20 * time.Millisecond)})

	coord := eventCoordinator(t, fed, "coord-node", CoordinatorConfig{})
	ctx := joinCtx(t)
	if err := coord.WaitWorkers(ctx, []string{"victim", "survivor"}); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}
	done := goSweep(func() ([]Record, error) { return coord.Run(ctx, testJobs(12)) })

	// Kill the victim as soon as it has been granted its first job.
	select {
	case <-victimStarted:
		killVictim()
	case <-ctx.Done():
		t.Fatal("the victim was never granted a job")
	}
	silent := func(worker string) time.Duration {
		for _, w := range coord.Sample().Workers {
			if w.Name == worker {
				return time.Duration(w.SinceSeen * float64(time.Second))
			}
		}
		return -1
	}
	// Step until the coordinator hears the survivor with the victim silent
	// for longer than deadAfter: the pass that heard that beat re-dispatches
	// the victim's grants. Any re-dispatch is not enough: a grant still on
	// its way to the survivor two steps after it was sent is re-dispatched
	// as lost, and with the clock stopped there the victim never dies.
	for steps := 0; silent("victim") <= deadAfter; steps++ {
		if time.Duration(steps)*beat > 2*deadAfter {
			t.Fatalf("the victim is still live %v after it died", time.Duration(steps)*beat)
		}
		clk.Advance(beat)
		waitFor(ctx, t, "the survivor's beat reached the coordinator", func() bool { return silent("survivor") == 0 })
	}

	res := <-done
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	recs := res.recs
	if len(recs) != 12 {
		t.Fatalf("records = %d, want 12 (report must be complete)", len(recs))
	}
	redispatched := 0
	for _, r := range recs {
		if !r.Passed || r.Err != "" {
			t.Errorf("job %d: passed=%v err=%q worker=%s", r.Job, r.Passed, r.Err, r.Worker)
		}
		if r.Worker != "survivor" {
			t.Errorf("job %d: worker %q, want survivor (victim can never finish)", r.Job, r.Worker)
		}
		if r.Attempt > 1 {
			redispatched++
		}
	}
	if redispatched == 0 {
		t.Error("no job carries attempt > 1: the victim's grants were not re-dispatched")
	}
}

// TestUDPLANSweepMatchesLocal is the acceptance sweep: the whole library
// × 5 repeats of headless jobs sharded across two workers over a real
// UDPLAN loopback segment, with each participant attaching through its
// own UDPLAN instance exactly like separate OS processes would. The dist
// verdicts must match a local sim.RunBatch of the same specs, and the
// persisted JSONL must aggregate into a complete report.
func TestUDPLANSweepMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-library headless scenario sweep")
	}
	const (
		host  = "127.0.0.1"
		slots = 8
	)
	base, err := transport.FreeUDPSegment(host, slots)
	if err != nil {
		t.Fatal(err)
	}
	segment := func() transport.LAN {
		lan, err := transport.NewUDPLAN(host, base, slots)
		if err != nil {
			t.Fatal(err)
		}
		return lan
	}

	batch := sim.BatchConfig{Headless: true}
	wcfg := WorkerConfig{
		Slots: 3,
		Batch: batch, // DefaultRunner: the real headless simulator
	}
	// One manual clock nobody advances: six concurrent sims under the race
	// detector starve the loops, and no link reaping or worker death
	// verdict may come of it. Discovery and dispatch are events.
	clk := cod.WithClock(clock.NewManual())
	for _, name := range []string{"w1", "w2"} {
		node, err := cod.NewNode(name+"-node", cod.WithLAN(segment()), clk)
		if err != nil {
			t.Fatal(err)
		}
		defer node.Close()
		cfg := wcfg
		cfg.Name = name
		w, err := NewWorker(node, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = w.Run(ctx)
			_ = w.Close()
		}()
		defer func() { cancel(); wg.Wait() }()
	}

	cnode, err := cod.NewNode("coord-node", cod.WithLAN(segment()), clk)
	if err != nil {
		t.Fatal(err)
	}
	defer cnode.Close()
	coord, err := NewCoordinator(cnode, CoordinatorConfig{Sweep: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	if err := coord.WaitWorkers(ctx, []string{"w1", "w2"}); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}

	jobs := JobsFor(scenario.Library(), 5)
	want := len(scenario.Library()) * 5
	if len(jobs) != want {
		t.Fatalf("jobs = %d, want %d", len(jobs), want)
	}
	recs, err := coord.Run(ctx, jobs)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != want {
		t.Fatalf("records = %d, want %d", len(recs), want)
	}

	// The same specs locally, through the same headless path.
	local := sim.RunBatch(ctx, scenario.Library(), batch)
	verdict := make(map[string]bool, len(local))
	for _, r := range local {
		verdict[r.Scenario] = r.Passed
	}
	workers := map[string]int{}
	for _, r := range recs {
		want, known := verdict[r.Scenario]
		if !known {
			t.Errorf("job %d: unknown scenario %q", r.Job, r.Scenario)
			continue
		}
		if r.Passed != want {
			t.Errorf("job %d (%s, seed %d): dist passed=%v, local=%v",
				r.Job, r.Scenario, r.Seed, r.Passed, want)
		}
		workers[r.Worker]++
	}
	if len(workers) < 2 {
		t.Errorf("sweep was not sharded: all records from %v", workers)
	}

	// Persist and aggregate, end to end.
	path := t.TempDir() + "/results.jsonl"
	if err := SaveRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := BuildReport(loaded)
	if rep.Total.Runs != want || len(rep.Scenarios) != len(scenario.Library()) {
		t.Fatalf("report: %d runs, %d scenarios", rep.Total.Runs, len(rep.Scenarios))
	}
	for _, g := range rep.Scenarios {
		if g.Runs != 5 {
			t.Errorf("%s: %d runs, want 5", g.Scenario, g.Runs)
		}
	}
	var sb strings.Builder
	WriteReport(&sb, rep)
	if !strings.Contains(sb.String(), "TOTAL") {
		t.Errorf("report:\n%s", sb.String())
	}
	t.Logf("\n%s", sb.String())
}

// TestCoordinatorGivesUpAfterMaxAttempts pins the synthetic-failure path:
// with only a black-hole worker on the segment, every job must come back
// as a failed record instead of hanging the sweep. On a manual clock each
// JobTimeout is one Advance that fails every standing grant; each
// re-dispatch goes to the black hole again, which goes on with the run it
// has under the new attempt, and the third attempt is the last.
func TestCoordinatorGivesUpAfterMaxAttempts(t *testing.T) {
	fed, clk := clockFed(t)

	// Grants and heartbeats flow, but no result ever comes back.
	blackhole := func(ctx context.Context, job Job, _ sim.BatchConfig) Record {
		<-ctx.Done()
		return Record{}
	}
	startWorker(t, fed, "blackhole", WorkerConfig{Slots: 4, Run: blackhole})
	coord := eventCoordinator(t, fed, "coord-node", CoordinatorConfig{})
	ctx := joinCtx(t)
	if err := coord.WaitWorkers(ctx, []string{"blackhole"}); err != nil {
		t.Fatal(err)
	}
	const n = 3
	done := goSweep(func() ([]Record, error) { return coord.Run(ctx, testJobs(n)) })
	waitFor(ctx, t, "granted every job", func() bool { return coord.Sample().Granted == n })
	jobTimeout := coord.cfg.JobTimeout
	for attempt := int64(1); attempt < maxAttempts; attempt++ {
		clk.Advance(jobTimeout)
		waitFor(ctx, t, fmt.Sprintf("re-dispatched attempt %d", attempt), func() bool {
			return coord.Sample().Redispatches == n*attempt
		})
	}
	clk.Advance(jobTimeout)
	res := <-done
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	if len(res.recs) != n {
		t.Fatalf("records = %d", len(res.recs))
	}
	for _, r := range res.recs {
		if r.Passed || !strings.Contains(r.Err, "gave up") || r.Attempt != maxAttempts {
			t.Errorf("job %d: %+v, want a gave-up failure at attempt %d", r.Job, r, maxAttempts)
		}
	}
}

// TestDefaultSweepsDiffer: a sweep ID is an identity, not a time. Two
// default coordinators on one clock that never moves must not share one,
// or workers would mix their job state.
func TestDefaultSweepsDiffer(t *testing.T) {
	fed := eventFed(t)
	var sweeps [2]int64
	for i := range sweeps {
		node, err := fed.Node(fmt.Sprintf("coord-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(node, CoordinatorConfig{})
		if err != nil {
			t.Fatal(err)
		}
		defer coord.Close()
		sweeps[i] = coord.cfg.Sweep
	}
	if a, b := sweeps[0], sweeps[1]; a == 0 || a == b {
		t.Fatalf("default sweeps %d and %d: want two distinct non-zero IDs", a, b)
	}
}

// TestCoordinatorRunCancel returns partial records and ctx.Err on cancel.
func TestCoordinatorRunCancel(t *testing.T) {
	coord := eventCoordinator(t, eventFed(t), "coord-node", CoordinatorConfig{})

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	recs, err := coord.Run(ctx, testJobs(2)) // no workers: nothing completes
	if err == nil {
		t.Fatal("Run returned nil error with no workers")
	}
	if len(recs) != 0 {
		t.Errorf("records = %+v, want none", recs)
	}
}

// TestWorkerSurvivesCoordinatorRestart runs two sweeps against the same
// standing worker pool — the second coordinator has a new sweep ID and
// reuses job IDs, which must not collide with the first sweep's state.
func TestWorkerSurvivesCoordinatorRestart(t *testing.T) {
	fed := eventFed(t)
	startWorker(t, fed, "w1", WorkerConfig{Slots: 2, Run: stubRunner(time.Millisecond)})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for sweep := int64(1); sweep <= 2; sweep++ {
		cnode, err := fed.Node(fmt.Sprintf("coord-%d", sweep))
		if err != nil {
			t.Fatal(err)
		}
		coord, err := NewCoordinator(cnode, CoordinatorConfig{Sweep: sweep})
		if err != nil {
			t.Fatal(err)
		}
		if err := coord.WaitWorkers(ctx, []string{"w1"}); err != nil {
			t.Fatalf("sweep %d: WaitWorkers: %v", sweep, err)
		}
		recs, err := coord.Run(ctx, testJobs(4))
		if err != nil {
			t.Fatalf("sweep %d: %v", sweep, err)
		}
		if len(recs) != 4 {
			t.Fatalf("sweep %d: records = %d", sweep, len(recs))
		}
		for _, r := range recs {
			if !r.Passed {
				t.Errorf("sweep %d job %d: %+v", sweep, r.Job, r)
			}
		}
		_ = coord.Close()
		_ = cnode.Close()
	}
}

// countSource streams n jobs over two library specs without ever holding
// them in a slice, so nothing but the coordinator can retain a job. When
// the coordinator comes for the last job — every other one loaded, all but
// a window of them finished — it measures the live heap into atLast.
type countSource struct {
	next, n int64
	atLast  runtime.MemStats
}

func (s *countSource) Next(context.Context) (Job, bool, error) {
	if s.next >= s.n {
		return Job{}, false, nil
	}
	if s.next == s.n-1 {
		runtime.GC()
		runtime.ReadMemStats(&s.atLast)
	}
	j := testJobs(2)[s.next%2]
	j.ID, j.Seed = s.next, s.next%3+1
	s.next++
	return j, true, nil
}

// TestRunStreamRetainsOnlyItsWindow streams 5000 stub jobs (≈4 KB of spec
// JSON each, 20 MB in all) through a coordinator and two workers and
// checks the live heap while the sweep still runs: it may hold the records
// and a few bytes per finished job, not the specs of jobs it has finished
// with.
func TestRunStreamRetainsOnlyItsWindow(t *testing.T) {
	const n = 5000
	if data, err := scenario.MarshalSpec(testJobs(1)[0].Spec); err != nil || len(data) < 3<<10 {
		t.Fatalf("test spec marshals to %d bytes (err %v); the bound below assumes ≈4 KB", len(data), err)
	}
	coord, ctx := startPool(t, eventFed(t), CoordinatorConfig{}, WorkerConfig{Slots: 4, Run: stubRunner(0)}, "w1", "w2")

	var before runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	src := &countSource{n: n}
	recs, err := coord.RunStream(ctx, src)
	if err != nil {
		t.Fatalf("RunStream: %v", err)
	}
	if grown := int64(src.atLast.HeapAlloc) - int64(before.HeapAlloc); grown > 8<<20 {
		t.Errorf("live heap grew %d KB by the last of %d jobs; want < 8 MB (records and the window)", grown>>10, n)
	}
	if len(recs) != n {
		t.Fatalf("records = %d, want %d", len(recs), n)
	}
	for i, r := range recs {
		want := testJobs(2)[i%2].Spec.Name
		if r.Job != int64(i) || !r.Passed || r.Err != "" || r.Scenario != want || r.Seed != int64(i%3+1) {
			t.Fatalf("record %d = %+v, want job %d of %s passed", i, r, i, want)
		}
	}
}
