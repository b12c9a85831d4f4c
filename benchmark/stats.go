package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of vals.
func sorted(vals []float64) []float64 {
	cp := append([]float64(nil), vals...)
	sort.Float64s(cp)
	return cp
}

// quantileSorted interpolates the q-quantile (0..1) of an ascending
// sample; 0 for an empty one.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5 quantile; 0 for an empty sample.
func median(vals []float64) float64 { return quantileSorted(sorted(vals), 0.5) }

// quartiles returns the first and third quartile by the exclusive method
// Python's statistics.quantiles(vals, n=4) uses, so a spread computed here
// equals the one the acceptance check computes. Fewer than two samples
// have no spread: both quartiles are the sample itself (or 0).
func quartiles(vals []float64) (q1, q3 float64) {
	s := sorted(vals)
	n := len(s)
	if n < 2 {
		return quantileSorted(s, 0.5), quantileSorted(s, 0.5)
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vals []float64) float64 {
	m := median(vals)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(m)
}

// tail is the highest percentile a sample supports: the largest p whose
// value still has at least ten samples beyond it. Samples under 20 report
// the median (p = 50) — nothing higher is supported.
func tail(vals []float64) (p, value float64) {
	s := sorted(vals)
	n := len(s)
	if n < 20 {
		return 50, quantileSorted(s, 0.5)
	}
	idx := n - 11 // ten samples lie beyond s[idx]
	return 100 * float64(idx+1) / float64(n), s[idx]
}

// selfTimes gives each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]int64 {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.ID] = s.End - s.Start - covered
	}
	return out
}
