package dist

import "context"

// JobSource feeds a coordinator's work list incrementally, so a sweep can
// dispatch jobs that are generated (or read) on demand instead of
// materialized up front — a 10k-job procedural campaign never holds more
// than the dispatch window in memory ahead of the workers.
//
// Next returns the next job to dispatch. ok=false means the source is
// exhausted and the sweep should drain what remains in flight; a non-nil
// err aborts the sweep (partial records are still returned). Next may
// block — e.g. on a completability dry-run certifying the next candidate:
// RunStream calls it from one goroutine of its own, never concurrently
// and never after it has returned, while its protocol loop goes on
// serving the jobs already loaded. The ctx it passes is canceled when the
// sweep ends, so a blocked Next must honour it.
type JobSource interface {
	Next(ctx context.Context) (Job, bool, error)
}

// SliceJobs adapts a materialized job list into a JobSource; Run is
// exactly RunStream over one of these.
func SliceJobs(jobs []Job) JobSource {
	return &sliceSource{jobs: jobs}
}

type sliceSource struct {
	jobs []Job
	at   int
}

func (s *sliceSource) Next(ctx context.Context) (Job, bool, error) {
	if err := ctx.Err(); err != nil {
		return Job{}, false, err
	}
	if s.at >= len(s.jobs) {
		return Job{}, false, nil
	}
	j := s.jobs[s.at]
	s.at++
	return j, true, nil
}
