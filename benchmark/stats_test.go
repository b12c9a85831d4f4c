package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{4, 1}, 2.5},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// gives (exclusive method): the acceptance check computes spreads with it.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{2, 4, 4, 5, 7, 9, 11}, 4, 9},
		{[]float64{5}, 5, 5},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread of a zero median = %v, want 0", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	if p, v := tail([]float64{3, 1, 2}); p != 50 || v != 2 {
		t.Errorf("small sample: p%v = %v, want the median p50 = 2", p, v)
	}
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	p, v := tail(vals)
	if !near(p, 99) || v != 990 {
		t.Errorf("tail of 1..1000 = p%v %v, want p99 990 (ten samples beyond)", p, v)
	}
	beyond := 0
	for _, x := range vals {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the tail value, want 10", beyond)
	}
	vals = vals[:20]
	if p, v := tail(vals); !near(p, 50) || v != 10 {
		t.Errorf("tail of 1..20 = p%v %v, want p50 10", p, v)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60},  // overlaps 2: covered once
		{ID: 4, Parent: 1, Start: 90, End: 130}, // runs past the parent: clipped
		{ID: 5, Parent: 2, Start: 10, End: 20},
	}
	got := selfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 20, 3: 30, 4: 40, 5: 10}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestWorsening(t *testing.T) {
	hi := metricDef{better: "higher"}
	lo := metricDef{better: "lower"}
	if got := worsening(hi, 100, 90); !near(got, 0.1) {
		t.Errorf("higher-is-better 100→90 = %v, want 0.1", got)
	}
	if got := worsening(lo, 100, 90); !near(got, -0.1) {
		t.Errorf("lower-is-better 100→90 = %v, want -0.1", got)
	}
	if got := worsening(lo, 0, 5); got != 0 {
		t.Errorf("zero base = %v, want 0", got)
	}
}
