// Package obs is the cluster's telemetry plane: a metric registry with
// Prometheus text exposition, an opt-in HTTP endpoint (/metrics, /healthz,
// /debug/tablez, pprof) whose /metrics reads backbone and dispatch state
// into gauges on every scrape, structured logging helpers on log/slog,
// and lightweight per-job trace spans.
//
// The paper's cluster of desktops was debugged by watching consoles; a
// 1000-job campaign across a multi-host sweep is not. This package turns
// the instrumentation the system already keeps — cb.Stats counters,
// Backbone.Tables per-channel tallies, the dist coordinator's dispatch
// state — into a live, scrapeable surface, so a stalled sweep names the
// channel (and the phase) eating the time instead of timing out mutely.
//
// # Layering
//
// obs sits above the public cod SDK and below the commands: it consumes
// only the exported cod.Stats / cod.TableEntry types through the narrow
// Backbone interface and never imports the backbone internals
// (internal/cb, internal/wire, internal/transport) — the codvet layering
// analyzer enforces this. internal/dist imports obs for span sinks and
// the slog shim; obs must therefore never import dist, which is why the
// Plane consumes dispatch state as plain DispatchSample values.
//
// # Metric naming
//
// Every series is prefixed codsim_ and grouped by subsystem:
//
//	codsim_cb_*    backbone counters and per-channel tallies ({node} label,
//	               per-channel series add {lp,class,peer,channel})
//	codsim_dist_*  dispatch state ({role} label; per-worker series {worker})
//	codsim_job_*   per-job trace phases ({phase} label)
//	codsim_gen_*   campaign candidate verdicts, cache consults, oracle time
//	codsim_obs_*   the plane's own scrape count
//
// Counters sampled from cumulative sources keep the _total suffix;
// instantaneous values (jobs in flight, slots busy) are plain gauges;
// phase latencies are _seconds histograms.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"codsim/internal/metrics"
)

// kind is a metric family's exposition type.
type kind string

const (
	kindCounter   kind = "counter"
	kindGauge     kind = "gauge"
	kindHistogram kind = "histogram"
)

// Counter is a monotone event count, rendered as an integer series. The
// hot path (Inc/Add) is allocation-free; grab the child of a CounterVec
// once and increment it per event.
type Counter struct {
	c metrics.Counter
}

// Inc adds one.
func (c *Counter) Inc() { c.c.Inc() }

// Add increments by d; negative d is a programming error (counters are
// monotone) and is ignored.
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.c.Add(d)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.c.Value() }

// Gauge is an instantaneous value that can move both ways: the last Set
// wins. The zero value is ready to use; Set and Value are lock-free.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram accumulates observations into fixed cumulative buckets — the
// Prometheus histogram shape: bucket i tallies observations ≤ bounds[i],
// with an implicit +Inf bucket catching the rest. Observe is lock-free and
// allocation-free, so it can sit on delivery hot paths.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // math.Float64bits-encoded running sum
}

// defaultLatencyBuckets spans 1 ms to 60 s exponentially — wide enough
// for both in-process dispatch hops and whole-scenario run phases.
var defaultLatencyBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// newHistogram returns a histogram over the given upper bounds, sorted
// here; nil or empty bounds mean defaultLatencyBuckets.
func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = defaultLatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe adds one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// snapshot returns the cumulative bucket counts (one per bound, plus the
// +Inf tail entry, which is the total count) and the sum of all
// observations.
func (h *Histogram) snapshot() (cumulative []uint64, sum float64) {
	cumulative = make([]uint64, len(h.counts))
	var run uint64
	for i := range h.counts {
		run += h.counts[i].Load()
		cumulative[i] = run
	}
	return cumulative, math.Float64frombits(h.sum.Load())
}

// series is one labeled instance of a family.
type series struct {
	labels string // rendered {k="v",...} block, "" for unlabeled
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// family is one named metric with its labeled series.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string // label names of a vec; nil for a plain instrument
	buckets []float64

	mu     sync.Mutex
	series map[string]*series
}

// get returns the series for the rendered label block, creating it.
func (f *family) get(labelBlock string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[labelBlock]
	if s == nil {
		s = &series{labels: labelBlock}
		switch f.kind {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = newHistogram(f.buckets)
		}
		f.series[labelBlock] = s
	}
	return s
}

// Registry owns a process's metric families and renders them in the
// Prometheus text exposition format. All methods are safe for concurrent
// use; registration is idempotent — asking for the same name again
// returns the same instrument, and re-registering a name as a different
// kind or label set panics (it is a programming error, caught in tests).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates a family, enforcing kind/label consistency.
func (r *Registry) lookup(name, help string, k kind, labels []string, buckets []float64) *family {
	if name == "" {
		panic("obs: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name: name, help: help, kind: k,
			labels: append([]string(nil), labels...), buckets: buckets,
			series: make(map[string]*series),
		}
		r.families[name] = f
		return f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: %s re-registered as %s (was %s)", name, k, f.kind))
	}
	if len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: %s re-registered with %d labels (was %d)", name, len(labels), len(f.labels)))
	}
	for i := range labels {
		if f.labels[i] != labels[i] {
			panic(fmt.Sprintf("obs: %s re-registered with label %q (was %q)", name, labels[i], f.labels[i]))
		}
	}
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.lookup(name, help, kindCounter, nil, nil).get("").ctr
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.lookup(name, help, kindGauge, nil, nil).get("").gauge
}

// Histogram registers (or fetches) an unlabeled histogram over the given
// bucket upper bounds (nil = 1 ms to 60 s, exponentially).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, kindHistogram, nil, buckets).get("").hist
}

// CounterVec registers (or fetches) a counter family keyed by labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, kindCounter, labels, nil)}
}

// GaugeVec registers (or fetches) a gauge family keyed by labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.lookup(name, help, kindGauge, labels, nil)}
}

// HistogramVec registers (or fetches) a histogram family keyed by labels.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, labels, buckets)}
}

// CounterVec is a counter family; With resolves one labeled child.
type CounterVec struct{ f *family }

// With returns the child for the label values, in declaration order.
// Resolve once and keep the child on hot paths — With itself allocates.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(renderLabels(v.f.labels, values)).ctr
}

// GaugeVec is a gauge family; With resolves one labeled child.
type GaugeVec struct{ f *family }

// With returns the child for the label values, in declaration order.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(renderLabels(v.f.labels, values)).gauge
}

// HistogramVec is a histogram family; With resolves one labeled child.
type HistogramVec struct{ f *family }

// With returns the child for the label values, in declaration order.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(renderLabels(v.f.labels, values)).hist
}

// renderLabels builds the canonical {k="v",...} block for the values.
func renderLabels(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), len(names)))
	}
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel applies the exposition format's label-value escaping.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// insertLabel splices an extra label into a rendered label block — used
// for histogram le labels.
func insertLabel(block, name, value string) string {
	pair := name + `="` + escapeLabel(value) + `"`
	if block == "" {
		return "{" + pair + "}"
	}
	return block[:len(block)-1] + "," + pair + "}"
}

// formatValue renders a sample the way Prometheus clients do: integers
// without a decimal point, +Inf for infinity.
func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name and series by label block, so output is stable
// for golden tests and diffing two scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		f.mu.Lock()
		rows := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			rows = append(rows, s)
		}
		f.mu.Unlock()
		if len(rows) == 0 {
			continue
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].labels < rows[j].labels })

		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range rows {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, s.labels, s.ctr.Value())
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, s.labels, formatValue(s.gauge.Value()))
			case kindHistogram:
				cum, sum := s.hist.snapshot()
				for i, bound := range s.hist.bounds {
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, insertLabel(s.labels, "le", formatValue(bound)), cum[i])
				}
				// _count must equal the +Inf bucket; both come from the
				// same snapshot so a concurrent Observe cannot split them.
				inf := cum[len(cum)-1]
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, insertLabel(s.labels, "le", "+Inf"), inf)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, s.labels, formatValue(sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, s.labels, inf)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
