// Package obs is the cluster's telemetry plane: a metric registry with
// Prometheus text exposition, an opt-in HTTP endpoint (/metrics, /healthz,
// /debug/tablez, pprof) whose /metrics reads backbone and dispatch state
// on every scrape and writes it straight out, structured logging helpers
// on log/slog, and lightweight per-job trace spans.
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
// A scrape writes the registry's families first, sorted by name and their
// series by label block. The codsim_cb_* and codsim_dist_* families follow,
// written at scrape time from one reading of each registered source, each
// family's series in the order the sources were registered: a series
// appears exactly while its source reports it, and the plane keeps no copy
// of it in between. Those families are typed gauge, since the plane
// reports the sources' values rather than counting; values read from
// cumulative sources keep the _total suffix. Phase latencies are _seconds
// histograms.
package obs

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"codsim/internal/metrics"
)

// kind is a metric family's exposition type. The registry holds counters
// and histograms; the plane's source families are gauges.
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
	slices.Sort(b)
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

// series is one labeled instance of a family.
type series struct {
	labels string // rendered {k="v",...} block, "" for unlabeled
	ctr    *Counter
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
		if f.kind == kindHistogram {
			s.hist = newHistogram(f.buckets)
		} else {
			s.ctr = &Counter{}
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

// Histogram registers (or fetches) an unlabeled histogram over the given
// bucket upper bounds (nil = 1 ms to 60 s, exponentially).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.lookup(name, help, kindHistogram, nil, buckets).get("").hist
}

// CounterVec registers (or fetches) a counter family keyed by labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.lookup(name, help, kindCounter, labels, nil)}
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
	b := []byte{'{'}
	for i, n := range names {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendLabel(b, n, values[i])
	}
	return string(append(b, '}'))
}

// appendLabel appends name="value" with the exposition format's
// label-value escaping.
func appendLabel(b []byte, name, value string) []byte {
	b = append(append(b, name...), `="`...)
	from := 0
	for i := 0; i < len(value); i++ {
		var esc string
		switch value[i] {
		case '\\':
			esc = `\\`
		case '"':
			esc = `\"`
		case '\n':
			esc = `\n`
		default:
			continue
		}
		b = append(append(b, value[from:i]...), esc...)
		from = i + 1
	}
	return append(append(b, value[from:]...), '"')
}

// appendValue appends a sample the way Prometheus clients render it:
// integers without a decimal point, +Inf for infinity.
func appendValue(b []byte, v float64) []byte {
	if math.IsInf(v, 1) {
		return append(b, "+Inf"...)
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// expo appends the Prometheus text exposition format to a buffer its
// owner reuses. A family's HELP and TYPE lines go out with its first
// series, so a family with no series writes nothing.
type expo struct {
	b          []byte
	name, help string
	kind       kind
	headed     bool
}

// family starts the next family.
func (e *expo) family(name, help string, k kind) {
	e.name, e.help, e.kind, e.headed = name, help, k, false
}

// series starts one line of the current family, after the family's
// header if this is its first series; the caller appends the label block
// and ends the line with value or count.
func (e *expo) series(suffix string) {
	if !e.headed {
		e.headed = true
		if e.help != "" {
			e.b = append(append(append(append(e.b, "# HELP "...), e.name...), ' '), e.help...)
			e.b = append(e.b, '\n')
		}
		e.b = append(append(append(append(e.b, "# TYPE "...), e.name...), ' '), e.kind...)
		e.b = append(e.b, '\n')
	}
	e.b = append(append(e.b, e.name...), suffix...)
}

// value and count end a line with its sample.
func (e *expo) value(v float64) { e.b = append(appendValue(append(e.b, ' '), v), '\n') }

func (e *expo) count(n uint64) { e.b = append(strconv.AppendUint(append(e.b, ' '), n, 10), '\n') }

// sample writes one series of the current family from its label
// name/value pairs.
func (e *expo) sample(v float64, pairs ...string) {
	e.series("")
	sep := byte('{')
	for i := 0; i < len(pairs); i += 2 {
		e.b = appendLabel(append(e.b, sep), pairs[i], pairs[i+1])
		sep = ','
	}
	if sep == ',' {
		e.b = append(e.b, '}')
	}
	e.value(v)
}

// WritePrometheus renders every family in the text exposition format,
// families sorted by name and series by label block, so output is stable
// for golden tests and diffing two scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var e expo
	r.appendTo(&e)
	_, err := w.Write(e.b)
	return err
}

// appendTo writes every family through e, in WritePrometheus's order.
func (r *Registry) appendTo(e *expo) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	slices.SortFunc(fams, func(a, b *family) int { return strings.Compare(a.name, b.name) })

	for _, f := range fams {
		f.mu.Lock()
		rows := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			rows = append(rows, s)
		}
		f.mu.Unlock()
		slices.SortFunc(rows, func(a, b *series) int { return strings.Compare(a.labels, b.labels) })

		e.family(f.name, f.help, f.kind)
		for _, s := range rows {
			if s.hist == nil {
				e.series("")
				e.b = append(e.b, s.labels...)
				e.count(uint64(s.ctr.Value()))
				continue
			}
			// Each bucket is loaded once and _count is the +Inf bucket's
			// running total, so a concurrent Observe cannot split them.
			var run uint64
			for i := range s.hist.counts {
				run += s.hist.counts[i].Load()
				le := math.Inf(1)
				if i < len(s.hist.bounds) {
					le = s.hist.bounds[i]
				}
				e.series("_bucket")
				if s.labels == "" {
					e.b = append(e.b, '{')
				} else {
					e.b = append(append(e.b, s.labels[:len(s.labels)-1]...), ',')
				}
				e.b = append(appendValue(append(e.b, `le="`...), le), `"}`...)
				e.count(run)
			}
			e.series("_sum")
			e.b = append(e.b, s.labels...)
			e.value(math.Float64frombits(s.hist.sum.Load()))
			e.series("_count")
			e.b = append(e.b, s.labels...)
			e.count(run)
		}
	}
}
