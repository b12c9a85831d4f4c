package dist

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"codsim/cod"
	"codsim/internal/obs"
	"codsim/internal/sim"
)

// startPool starts a coordinator and the named workers on fed, usually an
// eventFed, and returns once WaitWorkers does: every worker has beaten and
// every coordinator→worker dispatch channel is up, so the one grant a job
// gets reaches its worker.
func startPool(t testing.TB, fed *cod.Federation, ccfg CoordinatorConfig, wcfg WorkerConfig, names ...string) (*Coordinator, context.Context) {
	t.Helper()
	for _, name := range names {
		startWorker(t, fed, name, wcfg)
	}
	coord := eventCoordinator(t, fed, "coord-node", ccfg)
	ctx := joinCtx(t)
	if err := coord.WaitWorkers(ctx, names); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}
	return coord, ctx
}

// TestSweepNeverWaitsForReannounce counts the dispatch work of a sweep
// exactly: two one-slot workers on a clock nobody advances, so nothing is
// sent again on a period, finish n jobs with one grant and one attempt per
// job and nothing re-dispatched. Grants go out in load order, so each
// worker starts its jobs in load order too.
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
	coord, ctx := startPool(t, eventFed(t), CoordinatorConfig{}, WorkerConfig{Slots: 1, Run: run}, "w1", "w2")

	recs, err := coord.Run(ctx, testJobs(n))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkRecords(t, recs, n)
	if s := coord.Sample(); s.Grants != n || s.Attempts != n || s.Redispatches != 0 {
		t.Errorf("%d grants, %d attempts, %d re-dispatches; want %d, %d, 0", s.Grants, s.Attempts, s.Redispatches, n, n)
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

// TestAnnouncesStayNearOnePerJob is the dispatch storm's regression guard
// on a longer sweep over two-slot workers: a job is said to a worker once,
// by its grant, so a sweep of n jobs on a clock nobody advances costs
// exactly n grants and n attempts. Announcing, which this replaced, was
// bounded only by one per attempt plus a window a period.
func TestAnnouncesStayNearOnePerJob(t *testing.T) {
	const n = 600
	coord, ctx := startPool(t, eventFed(t), CoordinatorConfig{}, WorkerConfig{Slots: 2, Run: stubRunner(0)}, "w1", "w2")

	recs, err := coord.Run(ctx, testJobs(n))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkRecords(t, recs, n)
	if s := coord.Sample(); s.Grants != n || s.Attempts != n {
		t.Errorf("%d grants for %d attempts over %d jobs; want %d each", s.Grants, s.Attempts, n, n)
	}
}

// slotWatch is a pool's runner that counts each worker's runs in flight
// and holds every run until all of the pool's slots are running one: a
// coordinator that grants a worker more than its slots shows in the count,
// and one that leaves a free slot idle never fills the pool, so the sweep
// hangs until the test's deadline.
type slotWatch struct {
	t     *testing.T
	total int // the pool's slots

	mu      sync.Mutex
	filled  *sync.Cond
	waiting int
	wave    int
	runs    map[string]int
}

func newSlotWatch(t *testing.T, total int) *slotWatch {
	sw := &slotWatch{t: t, total: total, runs: make(map[string]int)}
	sw.filled = sync.NewCond(&sw.mu)
	return sw
}

// runner is worker name's Runner.
func (sw *slotWatch) runner(name string, slots int) Runner {
	return func(ctx context.Context, job Job, cfg sim.BatchConfig) Record {
		sw.mu.Lock()
		sw.runs[name]++
		if sw.runs[name] > slots {
			sw.t.Errorf("%s runs %d jobs at once on %d slots", name, sw.runs[name], slots)
		}
		sw.waiting++
		if wave := sw.wave; sw.waiting == sw.total {
			sw.waiting = 0
			sw.wave++
			sw.filled.Broadcast()
		} else {
			for wave == sw.wave {
				sw.filled.Wait()
			}
		}
		sw.runs[name]--
		sw.mu.Unlock()
		return stubRunner(0)(ctx, job, cfg)
	}
}

// TestWorkerNeverRunsMoreThanItsSlots: the coordinator counts each
// worker's runs from its beats, and its grants the beats have not heard
// yet, so no worker ever runs more jobs than it has slots, and every slot
// is granted a job as soon as it frees.
func TestWorkerNeverRunsMoreThanItsSlots(t *testing.T) {
	for _, slots := range []int{1, 2} {
		t.Run(fmt.Sprintf("slots=%d+%d", slots, slots), func(t *testing.T) {
			const waves = 8
			fed := eventFed(t)
			watch := newSlotWatch(t, 2*slots)
			for _, name := range []string{"w1", "w2"} {
				startWorker(t, fed, name, WorkerConfig{Slots: slots, Run: watch.runner(name, slots)})
			}
			coord := eventCoordinator(t, fed, "coord-node", CoordinatorConfig{})
			ctx := joinCtx(t)
			if err := coord.WaitWorkers(ctx, []string{"w1", "w2"}); err != nil {
				t.Fatalf("WaitWorkers: %v", err)
			}
			n := waves * 2 * slots
			recs, err := coord.Run(ctx, testJobs(n))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			checkRecords(t, recs, n)
		})
	}
}

// TestWorkerNeverRunsMoreThanItsSlotsOrphaned: a run the coordinator
// stopped waiting for still holds its slot. Job 0 runs on w1, the one-slot
// holder, until the worker stops; past JobTimeout the coordinator
// re-dispatches it to w0 and records it from there. w1's beats still say
// it is busy, so the jobs loaded after that all go to w0, and no worker
// runs more jobs than its one slot.
func TestWorkerNeverRunsMoreThanItsSlotsOrphaned(t *testing.T) {
	const (
		n    = 6
		beat = 500 * time.Millisecond // WorkerConfig.Heartbeat's default
	)
	fed, clk := clockFed(t)
	ctx := joinCtx(t)

	var mu sync.Mutex
	runs := map[string]int{}
	oneSlot := func(name string, run Runner) Runner {
		return func(ctx context.Context, job Job, cfg sim.BatchConfig) Record {
			mu.Lock()
			if runs[name]++; runs[name] > 1 {
				t.Errorf("%s runs %d jobs on 1 slot", name, runs[name])
			}
			mu.Unlock()
			defer func() {
				mu.Lock()
				runs[name]--
				mu.Unlock()
			}()
			return run(ctx, job, cfg)
		}
	}
	held := make(chan struct{})
	var once sync.Once
	hold := func(ctx context.Context, job Job, cfg sim.BatchConfig) Record {
		if job.ID == 0 {
			once.Do(func() { close(held) })
			<-ctx.Done() // job 0 ends on w1 only when the worker stops
		}
		return stubRunner(0)(ctx, job, cfg)
	}

	// The source yields job 0, then waits for the gate.
	gate := make(chan struct{})
	jobs, next := testJobs(n), 0
	src := jobSourceFunc(func(ctx context.Context) (Job, bool, error) {
		if next == 1 {
			select {
			case <-gate:
			case <-ctx.Done():
				return Job{}, false, ctx.Err()
			}
		}
		if next == n {
			return Job{}, false, nil
		}
		next++
		return jobs[next-1], true, nil
	})

	startWorker(t, fed, "w1", WorkerConfig{Slots: 1, Run: oneSlot("w1", hold)})
	coord := eventCoordinator(t, fed, "coord-node", CoordinatorConfig{JobTimeout: time.Second})
	if err := coord.WaitWorkers(ctx, []string{"w1"}); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}
	done := goSweep(func() ([]Record, error) { return coord.RunStream(ctx, src) })
	select {
	case <-held:
	case <-ctx.Done():
		t.Fatal("w1 never started job 0")
	}
	startWorker(t, fed, "w0", WorkerConfig{Slots: 1, Run: oneSlot("w0", stubRunner(0))})

	sample := func(name string) (obs.WorkerSample, bool) {
		for _, w := range coord.Sample().Workers {
			if w.Name == name {
				return w, true
			}
		}
		return obs.WorkerSample{}, false
	}
	waitFor(ctx, t, "heard w0", func() bool { _, ok := sample("w0"); return ok })
	for steps := 0; ; steps++ {
		if w, _ := sample("w1"); w.Busy == 1 {
			break
		}
		if steps == 4 {
			t.Fatal("w1's beats never said it is busy")
		}
		clk.Advance(beat)
		waitFor(ctx, t, "heard w1's beat", func() bool { w, _ := sample("w1"); return w.SinceSeen == 0 })
	}
	clk.Advance(time.Second) // past job 0's JobTimeout
	waitFor(ctx, t, "job 0 recorded from w0", func() bool { return coord.Sample().Done == 1 })

	close(gate)
	res := <-done
	if res.err != nil {
		t.Fatalf("RunStream: %v", res.err)
	}
	checkRecords(t, res.recs, n)
	for _, rec := range res.recs {
		if rec.Worker != "w0" {
			t.Errorf("job %d ran on %s, whose one slot job 0 still holds", rec.Job, rec.Worker)
		}
	}
}
