package dist

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"codsim/cod"
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

// TestWorkerNeverRunsMoreThanItsSlots: the coordinator counts the slots it
// has granted on each worker, so no worker ever runs more jobs than it has
// slots, and every slot is granted a job as soon as it frees.
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
