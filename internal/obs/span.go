package obs

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Job phases, in wall-clock order. Each phase is one histogram series
// under codsim_job_phase_seconds{phase=...}:
//
//	queue    coordinator-side: job loaded until its grant is sent
//	dispatch worker-side: grant taken until the run starts
//	run      worker-side: simulation wall time
//	ack      worker-side: first result send until the coordinator's ack
//
// queue is measured on the coordinator clock and the rest on the worker
// clock, so no phase ever spans two hosts' clocks.
const (
	PhaseQueue    = "queue"
	PhaseDispatch = "dispatch"
	PhaseRun      = "run"
	PhaseAck      = "ack"
)

// spanSeq distinguishes spans minted by this process; the process epoch
// distinguishes processes well enough for a debugging plane.
var (
	spanSeq   atomic.Uint64
	spanEpoch = uint64(time.Now().UnixNano()) & 0xffffffff
)

// MintSpanID returns a new process-unique span ID such as "a1b2c3d4-0007".
// It is minted when a job is loaded, threaded through its grant to the
// worker, and comes home on the dist.Record so a sweep's log lines and
// latency observations join on one key.
func MintSpanID() string {
	return fmt.Sprintf("%08x-%04x", spanEpoch, spanSeq.Add(1))
}

// Spans records per-job phase latencies into a registry histogram. A nil
// *Spans is a valid no-op recorder, so dist can thread one unconditionally.
type Spans struct {
	phases *HistogramVec
}

// NewSpans registers codsim_job_phase_seconds on reg and returns the
// recorder.
func NewSpans(reg *Registry) *Spans {
	return &Spans{
		phases: reg.HistogramVec("codsim_job_phase_seconds",
			"per-job latency by lifecycle phase (queue, dispatch, run, ack)",
			nil, "phase"),
	}
}

// Observe records one phase duration. Negative durations (clock steps) are
// clamped to zero; a nil receiver drops the observation.
func (s *Spans) Observe(phase string, d time.Duration) {
	if s == nil {
		return
	}
	if d < 0 {
		d = 0
	}
	s.phases.With(phase).Observe(d.Seconds())
}
