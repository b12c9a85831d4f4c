// Package metrics provides the instrumentation the runtime records into:
// a monotone counter (the backbone's stats, the display barrier's tallies),
// a count-and-sum summary (channel establishment latency) and a display
// loop's frame-rate tracker. The telemetry plane's gauges and histograms
// live in internal/obs, which reads these through the cod SDK.
// Everything is safe for concurrent use unless stated otherwise.
package metrics

import (
	"sync"
	"sync/atomic"
	"time"
)

// Summary accumulates a stream of float64 observations and reports their
// count and sum without retaining the samples.
type Summary struct {
	mu    sync.Mutex
	n     int64
	total float64
}

// Observe adds one sample.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.total += v
}

// Count returns the number of samples observed.
func (s *Summary) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Sum returns the total of all samples.
func (s *Summary) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Counter is a concurrency-safe monotone counter.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.n.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// FrameTracker measures frame intervals and reports the achieved frame
// rate. It keeps a count and a sum, not the intervals, so a display loop
// that runs all day holds two words. Not concurrency safe; one tracker
// belongs to one display loop.
type FrameTracker struct {
	frames int
	total  time.Duration
}

// TickInterval records a frame that took dt.
func (t *FrameTracker) TickInterval(dt time.Duration) {
	t.frames++
	t.total += dt
}

// FPS returns the mean achieved frame rate, or 0 before the first frame.
func (t *FrameTracker) FPS() float64 {
	if t.frames == 0 || t.total <= 0 {
		return 0
	}
	return float64(t.frames) / t.total.Seconds()
}
