package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced interval. The hierarchy is workload → phase → op
// (exam / candidate / job / 256-frame batch) → layer. An inner-loop layer
// is one accumulated child per op: End-Start is its busy time and Count
// the calls that busy time covers, not one span per call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int64  `json:"count"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op returning span ID 0, so workloads
// thread one unconditionally and pay a nil check when tracing is off.
type tracer struct {
	t0   time.Time
	root int // the workload span every phase hangs under

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// rootID is the workload span's ID, 0 when tracing is off.
func (t *tracer) rootID() int {
	if t == nil {
		return 0
	}
	return t.root
}

// now is nanoseconds since the tracer started.
func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(parent int, name, layer string) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Start: start, Count: 1,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// add records a closed span: an interval measured elsewhere (a Record
// field, an accumulated busy timer) placed at start, lasting d, covering
// count calls.
func (t *tracer) add(parent int, name, layer string, start int64, d time.Duration, count int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Start: start, End: start + int64(d), Count: count,
	})
	return len(t.spans)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsMS lists the durations of every span called name, in ms.
func durationsMS(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// writeSpans writes the span file: the host header, then every span.
func writeSpans(path string, hdr header, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Header header `json:"header"`
		Spans  []span `json:"spans"`
	}{hdr, spans}); err != nil {
		_ = f.Close()
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return f.Close()
}

// spanSummary prints one row per (layer, name): how many spans, their
// total and self time, the median duration and the highest percentile the
// sample supports — where the traced run's time went, by layer.
func spanSummary(w io.Writer, spans []span) {
	type row struct {
		layer, name string
		total, self int64
		calls       int64
		durMS       []float64
	}
	self := selfTimes(spans)
	rows := make(map[string]*row)
	for _, s := range spans {
		key := s.Layer + "/" + s.Name
		r := rows[key]
		if r == nil {
			r = &row{layer: s.Layer, name: s.Name}
			rows[key] = r
		}
		r.total += s.End - s.Start
		r.self += self[s.ID]
		r.calls += s.Count
		r.durMS = append(r.durMS, float64(s.End-s.Start)/1e6)
	}
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return rows[keys[i]].total > rows[keys[j]].total })
	fmt.Fprintf(w, "  %-24s %8s %10s %12s %12s %10s %14s\n", "layer/span", "n", "calls", "total ms", "self ms", "p50 ms", "tail ms")
	for _, k := range keys {
		r := rows[k]
		p, v := tail(r.durMS)
		fmt.Fprintf(w, "  %-24s %8d %10d %12.1f %12.1f %10.4f %7.4f (p%.4g)\n", k, len(r.durMS), r.calls,
			float64(r.total)/1e6, float64(r.self)/1e6, median(r.durMS), v, p)
	}
}
