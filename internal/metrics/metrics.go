// Package metrics provides the instrumentation the runtime records into:
// counters, gauges and histograms (the backbone's stats, the display
// barrier, the obs telemetry plane), a count-and-sum summary (channel
// establishment latency) and a display loop's frame-rate tracker.
// Everything is safe for concurrent use unless stated otherwise.
package metrics

import (
	"math"
	"sort"
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

// Gauge is a concurrency-safe instantaneous value: the last Set wins, Add
// adjusts it. Unlike Counter it may move in both directions — queue
// depths, in-flight jobs, thermometer-style samples. The zero value is
// ready to use; all operations are lock-free.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by d (negative d decreases it).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed cumulative buckets — the
// Prometheus histogram shape: Counts[i] tallies observations ≤ Bounds[i],
// with an implicit +Inf bucket catching the rest. Bounds are set once at
// construction; Observe is lock-free and allocation-free, so it can sit
// on delivery hot paths.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	count  atomic.Uint64
	sum    atomic.Uint64 // math.Float64bits-encoded running sum
}

// NewHistogram returns a histogram over the given ascending upper bounds.
// nil or empty bounds default to DefaultLatencyBuckets.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBuckets()
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// DefaultLatencyBuckets spans 1 ms to 60 s exponentially — wide enough
// for both in-process dispatch hops and whole-scenario run phases.
func DefaultLatencyBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
		0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// Observe adds one sample to its bucket.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Bounds returns the bucket upper bounds (excluding +Inf). The slice is
// shared; callers must not modify it.
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Snapshot returns the cumulative bucket counts (one per bound, plus the
// +Inf tail entry), the total count and the sum of all observations. The
// counts are cumulative in the Prometheus sense: entry i includes every
// bucket below it.
func (h *Histogram) Snapshot() (cumulative []uint64, count uint64, sum float64) {
	cumulative = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return cumulative, h.count.Load(), math.Float64frombits(h.sum.Load())
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

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
