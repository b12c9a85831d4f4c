package dist

import (
	"testing"
	"time"
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
