package dist

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"

	"codsim/cod"
	"codsim/internal/clock"
	"codsim/internal/sim"
	"codsim/internal/transport"
)

// The TestJoin tests hold dispatch to its event path: the pool runs on a
// manual clock nobody advances, so the backbone's re-broadcasts, the
// workers' heartbeat period and the coordinator's announce period never
// come round, and a pool becomes ready, a sweep starts and a late worker
// gets work only through what the join itself triggers — a beat when the
// heartbeat channel comes up, an announce (and a standing grant) said
// again when a dispatch channel does. Nothing in them sleeps;
// scripts/check.sh runs them -race -count=20.

// clockFed is a federation on its own MemLAN whose nodes share one manual
// clock.
func clockFed(t testing.TB) (*cod.Federation, *clock.Manual) {
	t.Helper()
	clk := clock.NewManual()
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), cod.WithClock(clk))
	t.Cleanup(func() { fed.Close() })
	return fed, clk
}

// eventFed is a federation on a clock nobody advances: it repairs nothing,
// and no period of its coordinator or workers comes round.
func eventFed(t testing.TB) *cod.Federation {
	t.Helper()
	fed, _ := clockFed(t)
	return fed
}

func eventWorker(slots int, run Runner) WorkerConfig {
	return WorkerConfig{Slots: slots, Run: run}
}

func eventCoordinator(t testing.TB, fed *cod.Federation, node string, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	cnode, err := fed.Node(node)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Sweep == 0 {
		cfg.Sweep = 42
	}
	coord, err := NewCoordinator(cnode, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	return coord
}

func joinCtx(t testing.TB) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// checkRecords holds a finished sweep to one record per job.
func checkRecords(t *testing.T, recs []Record, n int) {
	t.Helper()
	if len(recs) != n {
		t.Fatalf("%d records, want %d", len(recs), n)
	}
	for i, rec := range recs {
		if rec.Job != int64(i) || !rec.Passed || rec.Err != "" {
			t.Fatalf("record %d: job %d passed=%v err=%q", i, rec.Job, rec.Passed, rec.Err)
		}
	}
}

// TestJoinWaitWorkers: the pool is ready when its channels are, whichever
// side was built first.
func TestJoinWaitWorkers(t *testing.T) {
	for _, coordFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("coordinatorFirst=%v", coordFirst), func(t *testing.T) {
			fed := eventFed(t)
			ctx := joinCtx(t)
			var coord *Coordinator
			if coordFirst {
				coord = eventCoordinator(t, fed, "coord-node", CoordinatorConfig{})
			}
			startWorker(t, fed, "w1", eventWorker(1, stubRunner(0)))
			startWorker(t, fed, "w2", eventWorker(1, stubRunner(0)))
			if !coordFirst {
				coord = eventCoordinator(t, fed, "coord-node", CoordinatorConfig{})
			}
			if err := coord.WaitWorkers(ctx, []string{"w1", "w2"}); err != nil {
				t.Fatalf("WaitWorkers: %v", err)
			}
			for name, pub := range map[string]interface{ Channels() int }{
				ClassJob: coord.pubJob, ClassGrant: coord.pubGrant, ClassAck: coord.pubAck,
			} {
				if n := pub.Channels(); n != 2 {
					t.Errorf("%s has %d channels after WaitWorkers, want 2", name, n)
				}
			}
		})
	}
}

// onLog is a slog handler that hands every record to a function: how these
// tests learn that a coordinator or worker has reached a point of its loop.
type onLog func(slog.Record)

func (f onLog) Enabled(context.Context, slog.Level) bool { return true }
func (f onLog) WithAttrs([]slog.Attr) slog.Handler       { return f }
func (f onLog) WithGroup(string) slog.Handler            { return f }
func (f onLog) Handle(_ context.Context, r slog.Record) error {
	f(r)
	return nil
}

// sweepDone is what a sweep run on its own goroutine returned.
type sweepDone struct {
	recs []Record
	err  error
}

// goSweep runs one sweep on its own goroutine.
func goSweep(run func() ([]Record, error)) <-chan sweepDone {
	done := make(chan sweepDone, 1)
	go func() {
		recs, err := run()
		done <- sweepDone{recs, err}
	}()
	return done
}

// TestJoinSweepRightAfterWaitWorkers starts a 64-job sweep the moment
// WaitWorkers returns and wants every job recorded with no announce said
// twice: none went into the void and none waited for a period. On the
// wall clock a slow run may see the 250 ms announce period re-announce
// what is still unassigned, so there the claim is held at the first
// record: until then every announce was a first one, which is to say the
// head of the sweep did not wait for a period.
func TestJoinSweepRightAfterWaitWorkers(t *testing.T) {
	const n = 64
	for _, wall := range []bool{false, true} {
		t.Run(fmt.Sprintf("wall=%v", wall), func(t *testing.T) {
			fed := eventFed(t)
			if wall {
				fed = cod.NewFederation()
				t.Cleanup(func() { fed.Close() })
			}
			ctx := joinCtx(t)
			startWorker(t, fed, "w1", eventWorker(2, stubRunner(0)))
			startWorker(t, fed, "w2", eventWorker(2, stubRunner(0)))
			// The coordinator's dispatch counters as its first "job done"
			// goes by: announces, attempts.
			var coord *Coordinator
			var once sync.Once
			first := make(chan [2]int64, 1)
			coord = eventCoordinator(t, fed, "coord-node", CoordinatorConfig{
				Log: slog.New(onLog(func(r slog.Record) {
					if r.Message == "job done" {
						once.Do(func() {
							s := coord.Sample()
							first <- [2]int64{s.Announces, s.Attempts}
						})
					}
				})),
			})
			if err := coord.WaitWorkers(ctx, []string{"w1", "w2"}); err != nil {
				t.Fatalf("WaitWorkers: %v", err)
			}
			recs, err := coord.Run(ctx, testJobs(n))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			checkRecords(t, recs, n)
			// A job just loaded is announced on the loop's next pass, so
			// fewer is fine; more means one was said twice.
			if at := <-first; at[0] > at[1] {
				t.Errorf("at the first record: %d announces for %d jobs loaded; a job was said twice before anything finished",
					at[0], at[1])
			}
			s := coord.Sample()
			if s.Redispatches != 0 || s.Attempts != n {
				t.Errorf("%d attempts, %d re-dispatches; want %d, 0", s.Attempts, s.Redispatches, n)
			}
			if !wall && s.Announces != n {
				t.Errorf("%d announces, want %d: one per job", s.Announces, n)
			}
		})
	}
}

// TestJoinSweepBeforeThePool: a sweep started with nobody on the segment
// is announced into the void, and runs when a worker joins — the announces
// are said again because pubJob gained a channel, not because a period
// came round.
func TestJoinSweepBeforeThePool(t *testing.T) {
	const n = 8
	fed := eventFed(t)
	ctx := joinCtx(t)
	coord := eventCoordinator(t, fed, "coord-node", CoordinatorConfig{})

	// The source is asked for its end only after the sweep has taken the
	// last job, so by then every announce but perhaps that job's has gone
	// out, to nobody: the worker is started after that.
	loaded := make(chan struct{})
	jobs := testJobs(n)
	next := 0
	src := jobSourceFunc(func(context.Context) (Job, bool, error) {
		if next == len(jobs) {
			close(loaded)
			return Job{}, false, nil
		}
		next++
		return jobs[next-1], true, nil
	})
	done := goSweep(func() ([]Record, error) { return coord.RunStream(ctx, src) })
	select {
	case <-loaded:
	case <-ctx.Done():
		t.Fatal("the sweep never loaded its jobs")
	}
	startWorker(t, fed, "w1", eventWorker(2, stubRunner(0)))
	res := <-done
	if res.err != nil {
		t.Fatalf("RunStream: %v", res.err)
	}
	checkRecords(t, res.recs, n)
}

// jobSourceFunc adapts a function to JobSource.
type jobSourceFunc func(context.Context) (Job, bool, error)

func (f jobSourceFunc) Next(ctx context.Context) (Job, bool, error) { return f(ctx) }

// TestJoinWorkerMidSweep: a worker that joins a running sweep is told the
// pending jobs and granted work. The first worker's one slot is held until
// the newcomer has started a job, so the sweep cannot finish without it.
func TestJoinWorkerMidSweep(t *testing.T) {
	const n = 6
	fed := eventFed(t)
	ctx := joinCtx(t)

	w1Started := make(chan struct{})
	w2Started := make(chan struct{})
	var once1, once2 sync.Once
	hold := func(ctx context.Context, job Job, cfg sim.BatchConfig) Record {
		once1.Do(func() { close(w1Started) })
		select {
		case <-w2Started:
		case <-ctx.Done():
		}
		return stubRunner(0)(ctx, job, cfg)
	}
	late := func(ctx context.Context, job Job, cfg sim.BatchConfig) Record {
		once2.Do(func() { close(w2Started) })
		return stubRunner(0)(ctx, job, cfg)
	}

	startWorker(t, fed, "w1", eventWorker(1, hold))
	coord := eventCoordinator(t, fed, "coord-node", CoordinatorConfig{})
	if err := coord.WaitWorkers(ctx, []string{"w1"}); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}
	done := goSweep(func() ([]Record, error) { return coord.Run(ctx, testJobs(n)) })
	select {
	case <-w1Started:
	case <-ctx.Done():
		t.Fatal("the first worker never started a job")
	}
	startWorker(t, fed, "w2", eventWorker(1, late))
	res := <-done
	if res.err != nil {
		t.Fatalf("Run: %v", res.err)
	}
	checkRecords(t, res.recs, n)
	byWorker := map[string]int{}
	for _, rec := range res.recs {
		byWorker[rec.Worker]++
	}
	if byWorker["w2"] == 0 {
		t.Errorf("records by worker %v: the worker that joined mid-sweep ran nothing", byWorker)
	}
}

// TestJoinBackToBackSweeps: a worker still running a job of an abandoned
// sweep keeps the next sweep's announces and bids on them when its slot
// frees. The second coordinator says each job once (its clock never moves),
// and the run is released only after the worker has reported holding them,
// so a worker that dropped them would leave the sweep waiting for ever.
func TestJoinBackToBackSweeps(t *testing.T) {
	const n = 3
	fed := eventFed(t)
	ctx := joinCtx(t)

	started := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	run := func(ctx context.Context, job Job, cfg sim.BatchConfig) Record {
		first := false
		once.Do(func() { first = true })
		if first {
			close(started)
			<-release // not ctx: the first sweep's end must not end this run
		}
		return stubRunner(0)(ctx, job, cfg)
	}
	held := make(chan struct{}, 1)
	wcfg := eventWorker(1, run)
	wcfg.Log = slog.New(onLog(func(r slog.Record) {
		if r.Message == "sweep waits for running jobs" {
			select {
			case held <- struct{}{}:
			default:
			}
		}
	}))
	startWorker(t, fed, "w1", wcfg)

	// The first sweep is abandoned with its one job still running.
	a := eventCoordinator(t, fed, "coord-a", CoordinatorConfig{Sweep: 1})
	if err := a.WaitWorkers(ctx, []string{"w1"}); err != nil {
		t.Fatalf("first WaitWorkers: %v", err)
	}
	actx, abandon := context.WithCancel(ctx)
	aDone := goSweep(func() ([]Record, error) { return a.Run(actx, testJobs(1)) })
	select {
	case <-started:
	case <-ctx.Done():
		t.Fatal("the first sweep's job never started")
	}
	abandon()
	if res := <-aDone; res.err == nil {
		t.Fatal("the abandoned sweep returned no error")
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := eventCoordinator(t, fed, "coord-b", CoordinatorConfig{Sweep: 2})
	if err := b.WaitWorkers(ctx, []string{"w1"}); err != nil {
		t.Fatalf("second WaitWorkers: %v", err)
	}
	done := goSweep(func() ([]Record, error) { return b.Run(ctx, testJobs(n)) })
	select {
	case <-held:
	case <-ctx.Done():
		t.Fatal("the worker never reported holding the next sweep's announces")
	}
	close(release)
	res := <-done
	if res.err != nil {
		t.Fatalf("second sweep: %v", res.err)
	}
	checkRecords(t, res.recs, n)
	if s := b.Sample(); s.Announces != n {
		t.Errorf("second sweep: %d announces, want %d: one per job", s.Announces, n)
	}
}

// TestJoinDatagramCounts pins the discovery datagrams of the three-node
// rig the benchmark and codbatch build — two workers, then the coordinator
// — so that eagerness cannot become a storm unnoticed. Each of the nine
// subscriptions says SUBSCRIPTION once when registered and each of the
// nine publications solicits once; that is all. The workers' six dispatch
// subscriptions answer the coordinator's solicits over a link, not the
// segment: the coordinator subscribes before it publishes, so each worker's
// CB has dialed it by the time a solicit arrives. The count is the
// topology's: no interval runs, and WaitWorkers returns only after those
// six answers have built their channels.
func TestJoinDatagramCounts(t *testing.T) {
	fed := eventFed(t)
	ctx := joinCtx(t)
	startWorker(t, fed, "w1", eventWorker(2, stubRunner(0)))
	startWorker(t, fed, "w2", eventWorker(2, stubRunner(0)))
	coord := eventCoordinator(t, fed, "coord-node", CoordinatorConfig{})
	if err := coord.WaitWorkers(ctx, []string{"w1", "w2"}); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}
	recs, err := coord.Run(ctx, testJobs(8))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	checkRecords(t, recs, 8)
	var subscriptions, solicits int64
	for _, node := range fed.Nodes() {
		subscriptions += node.Stats().BroadcastsSent.Value()
		solicits += node.Stats().SolicitsSent.Value()
	}
	if subscriptions != 9 || solicits != 9 {
		t.Errorf("%d SUBSCRIPTION and %d PUBLICATION datagrams, want 9 and 9", subscriptions, solicits)
	}
}

// fastForward runs clk ten times faster than the wall clock until the test
// ends: every period at its default, in a tenth of its wall time.
func fastForward(t testing.TB, clk *clock.Manual) {
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				clk.Advance(10 * time.Millisecond)
			case <-stop:
				return
			}
		}
	}()
	t.Cleanup(func() { close(stop); <-done })
}

// TestJoinRepairUnderLoss: on a segment that drops most datagrams, the
// eager ones included, the backbone's repair periods still bring the pool
// up and the sweep through.
func TestJoinRepairUnderLoss(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			clk := clock.NewManual()
			fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN(transport.WithLoss(0.7), transport.WithSeed(seed))), cod.WithClock(clk))
			t.Cleanup(func() { fed.Close() })
			fastForward(t, clk)
			ctx := joinCtx(t)
			wcfg := WorkerConfig{Slots: 2, Run: stubRunner(0)}
			startWorker(t, fed, "w1", wcfg)
			startWorker(t, fed, "w2", wcfg)
			coord := eventCoordinator(t, fed, "coord-node", CoordinatorConfig{})
			if err := coord.WaitWorkers(ctx, []string{"w1", "w2"}); err != nil {
				t.Fatalf("WaitWorkers: %v", err)
			}
			recs, err := coord.Run(ctx, testJobs(16))
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			checkRecords(t, recs, 16)
		})
	}
}
