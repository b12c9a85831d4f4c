package dist

import (
	"context"
	"testing"
	"time"

	"codsim/cod"
)

// BenchmarkDistDispatch is the dispatch layer alone: one op is one job
// through a coordinator and two two-slot workers on a MemLAN, with a runner
// that returns at once and the library's multi-KB spec JSON on every
// announce. ns/op and allocs/op are per job; announces/job is the
// coordinator's announce publications over the jobs run — about 1 when
// workers refill from their backlog, about Window when every result
// re-announces the window.
func BenchmarkDistDispatch(b *testing.B) {
	coord, ctx := startPool(b, fastCoordinator(),
		WorkerConfig{Slots: 2, Heartbeat: 25 * time.Millisecond, Run: stubRunner(0)}, "w1", "w2")
	jobs := testJobs(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	recs, err := coord.Run(ctx, jobs)
	b.StopTimer()
	if err != nil || len(recs) != b.N {
		b.Fatalf("Run: %d records of %d, %v", len(recs), b.N, err)
	}
	b.ReportMetric(float64(coord.Sample().Announces)/float64(b.N), "announces/job")
}

// BenchmarkDistReady is a dispatch federation's bring-up, the cost a batch
// pays per job list: one op builds a MemLAN federation with default
// backbone timers, one two-slot worker with the default Heartbeat and a
// coordinator with the default Announce, waits for the pool, runs a
// one-job sweep to its record and tears everything down (untimed). Every
// step of it is a join, so it reads a millisecond or two while discovery,
// readiness and the first announce ride their events, and half a second
// or more when any of them waits for an interval.
func BenchmarkDistReady(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()))
		stop := startWorker(b, fed, "w1", WorkerConfig{Slots: 2, Run: stubRunner(0)})
		cnode, err := fed.Node("coord-node")
		if err != nil {
			b.Fatal(err)
		}
		coord, err := NewCoordinator(cnode, CoordinatorConfig{Sweep: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		if err := coord.WaitWorkers(ctx, []string{"w1"}); err != nil {
			b.Fatalf("WaitWorkers: %v", err)
		}
		recs, err := coord.Run(ctx, testJobs(1))
		if err != nil || len(recs) != 1 {
			b.Fatalf("Run: %d records, %v", len(recs), err)
		}
		b.StopTimer()
		cancel()
		stop()
		coord.Close()
		fed.Close()
		b.StartTimer()
	}
}
