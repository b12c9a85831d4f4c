// Package metrics provides the lightweight instrumentation used by the
// experiment harness: streaming summaries (Welford), counters, rate
// meters, frame-time trackers and fixed-width text tables. Everything is
// safe for concurrent use unless stated otherwise.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Summary accumulates a stream of float64 observations and reports count,
// mean, min, max and standard deviation without retaining the samples.
type Summary struct {
	mu    sync.Mutex
	n     int64
	mean  float64
	m2    float64
	min   float64
	max   float64
	total float64
}

// Observe adds one sample.
func (s *Summary) Observe(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.total += v
	if s.n == 1 {
		s.min, s.max = v, v
	} else {
		if v < s.min {
			s.min = v
		}
		if v > s.max {
			s.max = v
		}
	}
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
}

// Count returns the number of samples observed.
func (s *Summary) Count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Mean returns the arithmetic mean, or 0 with no samples.
func (s *Summary) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mean
}

// Sum returns the total of all samples.
func (s *Summary) Sum() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Min returns the smallest sample, or 0 with no samples.
func (s *Summary) Min() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.min
}

// Max returns the largest sample, or 0 with no samples.
func (s *Summary) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.max
}

// StdDev returns the sample standard deviation, or 0 with <2 samples.
func (s *Summary) StdDev() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// String formats the summary on one line.
func (s *Summary) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == 0 {
		return "n=0"
	}
	sd := 0.0
	if s.n >= 2 {
		sd = math.Sqrt(s.m2 / float64(s.n-1))
	}
	return fmt.Sprintf("n=%d mean=%.4g sd=%.3g min=%.4g max=%.4g", s.n, s.mean, sd, s.min, s.max)
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

// FrameTracker measures frame intervals in simulated or wall time and
// reports achieved frames-per-second statistics. It keeps running sums, not
// the intervals, so a display loop that runs all day holds a few words.
// Not concurrency safe; one tracker belongs to one display loop.
type FrameTracker struct {
	frames  int
	total   float64 // seconds
	worst   float64 // seconds
	mean    float64 // of the intervals, seconds (Welford)
	m2      float64 // sum of squared deviations from mean (Welford)
	last    time.Time
	started bool
}

// TickAt records a frame boundary at the given instant.
func (t *FrameTracker) TickAt(now time.Time) {
	if t.started {
		t.add(now.Sub(t.last).Seconds())
	}
	t.last = now
	t.started = true
}

// TickInterval records a frame that took dt of simulated time.
func (t *FrameTracker) TickInterval(dt time.Duration) {
	t.add(dt.Seconds())
	t.started = true
}

func (t *FrameTracker) add(s float64) {
	t.frames++
	t.total += s
	t.worst = max(t.worst, s)
	d := s - t.mean
	t.mean += d / float64(t.frames)
	t.m2 += d * (s - t.mean)
}

// Frames returns the number of completed frame intervals.
func (t *FrameTracker) Frames() int { return t.frames }

// FPS returns the mean achieved frame rate, or 0 before two ticks.
func (t *FrameTracker) FPS() float64 {
	if t.frames == 0 || t.total <= 0 {
		return 0
	}
	return float64(t.frames) / t.total
}

// WorstFrame returns the longest frame interval observed.
func (t *FrameTracker) WorstFrame() time.Duration {
	return time.Duration(t.worst * float64(time.Second))
}

// Jitter returns the standard deviation of the frame intervals.
func (t *FrameTracker) Jitter() time.Duration {
	if t.frames < 2 {
		return 0
	}
	return time.Duration(math.Sqrt(t.m2/float64(t.frames-1)) * float64(time.Second))
}

// Table builds fixed-width text tables for the experiment reports.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends one row; cells format with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = formatFloat(v)
		case float32:
			row[i] = formatFloat(float64(v))
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

func formatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
