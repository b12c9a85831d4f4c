package dist

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync/atomic"
	"testing"
	"time"

	"codsim/internal/sim"
)

// logEvents is a slog handler that turns the coordinator's dispatch log
// into test events: "<message> <job id>" per record.
type logEvents chan string

func (h logEvents) Enabled(context.Context, slog.Level) bool { return true }
func (h logEvents) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h logEvents) WithGroup(string) slog.Handler            { return h }
func (h logEvents) Handle(_ context.Context, r slog.Record) error {
	job := int64(-1)
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "job" {
			job = a.Value.Int64()
		}
		return true
	})
	h <- fmt.Sprintf("%s %d", r.Message, job)
	return nil
}

// gatedSource hands out its jobs and then blocks in Next until open is
// closed (or ctx ends), as a generator still certifying its next candidate
// does. It also holds RunStream to the JobSource contract: one Next at a
// time, none after the sweep has returned.
type gatedSource struct {
	t       *testing.T
	jobs    []Job
	blocked chan struct{} // closed when the blocking Next has been entered
	open    chan struct{}

	at       int
	inside   atomic.Int32
	returned atomic.Bool // set by the test once RunStream is back
}

func (s *gatedSource) Next(ctx context.Context) (Job, bool, error) {
	if s.inside.Add(1) != 1 {
		s.t.Error("source polled concurrently")
	}
	defer s.inside.Add(-1)
	if s.returned.Load() {
		s.t.Error("source polled after RunStream returned")
	}
	if s.at < len(s.jobs) {
		s.at++
		return s.jobs[s.at-1], true, nil
	}
	close(s.blocked)
	select {
	case <-s.open:
		return Job{}, false, nil
	case <-ctx.Done():
		return Job{}, false, ctx.Err()
	}
}

// A source slower than the pool must not park the protocol: with the
// source blocked on its third job, the first job's result is recorded and
// the second job is granted. When the source was polled from the protocol
// loop neither happened until the source answered.
func TestBlockedSourceDoesNotParkDispatch(t *testing.T) {
	events := make(logEvents, 64) // room for every record of a two-job sweep: logging never blocks the coordinator
	ccfg := fastCoordinator()
	ccfg.Log = slog.New(events)
	release := make(chan struct{})
	run := func(ctx context.Context, job Job, cfg sim.BatchConfig) Record {
		if job.ID == 1 {
			select { // job 1 stays in flight until the test has seen its grant
			case <-release:
			case <-ctx.Done():
			}
		}
		return stubRunner(0)(ctx, job, cfg)
	}
	coord, ctx := startPool(t, ccfg, WorkerConfig{Slots: 1, Heartbeat: 25 * time.Millisecond, Run: run}, "w1")

	src := &gatedSource{t: t, jobs: testJobs(2), blocked: make(chan struct{}), open: make(chan struct{})}
	type swept struct {
		recs []Record
		err  error
	}
	done := make(chan swept, 1)
	go func() {
		recs, err := coord.RunStream(ctx, src)
		src.returned.Store(true)
		done <- swept{recs, err}
	}()

	want := map[string]bool{"job done 0": true, "job granted 1": true}
	for len(want) > 0 {
		select {
		case ev := <-events:
			delete(want, ev)
		case <-ctx.Done():
			t.Fatalf("still waiting for %v with the source blocked: the protocol loop is parked on it", want)
		}
	}
	// Only now may the source answer: everything above happened without it.
	close(release)
	close(src.open)
	got := <-done
	if got.err != nil || len(got.recs) != 2 {
		t.Fatalf("RunStream: %d records, err %v; want 2, nil", len(got.recs), got.err)
	}
}

// RunStream joins its feeder: when the sweep is canceled with the source
// blocked, the source has seen the cancellation and left Next by the time
// RunStream returns, and is not polled again.
func TestRunStreamJoinsItsFeeder(t *testing.T) {
	coord, ctx := startPool(t, fastCoordinator(),
		WorkerConfig{Slots: 1, Heartbeat: 25 * time.Millisecond, Run: stubRunner(0)}, "w1")
	src := &gatedSource{t: t, blocked: make(chan struct{}), open: make(chan struct{})}
	sctx, cancel := context.WithCancel(ctx)
	go func() {
		<-src.blocked
		cancel()
	}()
	_, err := coord.RunStream(sctx, src)
	src.returned.Store(true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunStream: %v, want context.Canceled", err)
	}
	if n := src.inside.Load(); n != 0 {
		t.Fatalf("RunStream returned with the source still inside Next (%d)", n)
	}
}
