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
// grant. ns/op and allocs/op are per job; grants/job is the coordinator's
// grant publications over the jobs run — 1 when every grant reaches its
// worker the first time. It runs on the wall clock, every period at its
// default, as a deployment does.
func BenchmarkDistDispatch(b *testing.B) {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()))
	b.Cleanup(func() { fed.Close() })
	coord, ctx := startPool(b, fed, CoordinatorConfig{}, WorkerConfig{Slots: 2, Run: stubRunner(0)}, "w1", "w2")
	jobs := testJobs(b.N)
	b.ReportAllocs()
	b.ResetTimer()
	recs, err := coord.Run(ctx, jobs)
	b.StopTimer()
	if err != nil || len(recs) != b.N {
		b.Fatalf("Run: %d records of %d, %v", len(recs), b.N, err)
	}
	b.ReportMetric(float64(coord.Sample().Grants)/float64(b.N), "grants/job")
}

// BenchmarkDistReady is a dispatch federation's bring-up, the cost a batch
// pays per job list: one op builds a MemLAN federation on the wall clock,
// one two-slot worker and a coordinator, waits for the pool, runs a
// one-job sweep to its record and tears everything down (untimed). Every
// step of it is a join, so it reads a millisecond or two while discovery,
// readiness and the first grant ride their events, and half a second or
// more when any of them waits for an interval.
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
