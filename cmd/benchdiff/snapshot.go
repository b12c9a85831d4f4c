package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// endToEnd mirrors BENCHMARK.json's end_to_end list: the five metrics a
// snapshot summarizes, in that order, each with the direction that counts
// as better.
var endToEnd = []struct{ name, better string }{
	{"setup_s", "lower"},
	{"peak_rss_mb", "lower"},
	{"primary_per_s", "higher"},
	{"secondary_per_s", "higher"},
	{"cpu_us_per_op", "lower"},
}

// codbenchRun is one codbench invocation read back from its output: the
// header line it prints to standard error first, then its result line.
type codbenchRun struct {
	workload string
	seed     int64
	commit   string
	host     host
	result   codbenchResult
}

// codbenchResult is the JSON object codbench prints as its last line of
// standard output.
type codbenchResult struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	CPU        string `json:"cpu"`
}

// parseCodbench reads one side's runs in line order. A line starting
// "codbench " is a run's header (workload, seed, host, commit) and a line
// starting "{" is its result; every other line is ignored, so a file may
// hold codbench's whole combined output, run after run. A result line
// belongs to the header before it, and a header without one (a run that
// died) is refused: dropping it would pair every later run with the wrong
// one.
func parseCodbench(path string) ([]codbenchRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var (
		runs []codbenchRun
		cur  *codbenchRun
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "codbench "):
			if cur != nil {
				return nil, fmt.Errorf("%s:%d: the run before this header printed no result line", path, n)
			}
			h, err := parseHeader(line)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, n, err)
			}
			cur = &h
		case strings.HasPrefix(line, "{"):
			if cur == nil {
				return nil, fmt.Errorf("%s:%d: result line without a codbench header line before it", path, n)
			}
			if err := json.Unmarshal([]byte(line), &cur.result); err != nil {
				return nil, fmt.Errorf("%s:%d: %w", path, n, err)
			}
			runs = append(runs, *cur)
			cur = nil
		}
	}
	if cur != nil {
		return nil, fmt.Errorf("%s: the last run printed no result line", path)
	}
	return runs, sc.Err()
}

// parseHeader reads codbench's first line:
//
//	codbench fed_exam seed=81 seconds=26 trace=0 quick=false | nproc=2 GOMAXPROCS=2 go1.24.0 cpu="…" commit=…
func parseHeader(line string) (codbenchRun, error) {
	var r codbenchRun
	run, hostPart, ok := strings.Cut(line, " | ")
	if !ok {
		return r, fmt.Errorf("codbench header without host part: %q", line)
	}
	fields := strings.Fields(run)
	if len(fields) < 2 {
		return r, fmt.Errorf("codbench header without workload: %q", line)
	}
	r.workload = fields[1]
	for _, f := range fields[2:] {
		if v, ok := strings.CutPrefix(f, "seed="); ok {
			seed, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return r, fmt.Errorf("codbench header seed: %w", err)
			}
			r.seed = seed
		}
	}
	if before, cpu, ok := strings.Cut(hostPart, "cpu="); ok {
		rest := cpu
		if q, err := strconv.QuotedPrefix(cpu); err == nil {
			r.host.CPU, _ = strconv.Unquote(q)
			rest = cpu[len(q):]
		}
		hostPart = before + rest
	}
	for _, f := range strings.Fields(hostPart) {
		k, v, ok := strings.Cut(f, "=")
		switch {
		case !ok && strings.HasPrefix(f, "go"):
			r.host.Go = f
		case k == "nproc":
			r.host.NProc, _ = strconv.Atoi(v)
		case k == "GOMAXPROCS":
			r.host.GOMAXPROCS, _ = strconv.Atoi(v)
		case k == "commit":
			r.commit = v
		}
	}
	return r, nil
}

// snapshot is a BENCH_<pr>.json file: alternating parent/change codbench
// runs summarized per workload and side.
type snapshot struct {
	Parent    sideInfo           `json:"parent"`
	Change    sideInfo           `json:"change"`
	Workloads []workloadSnapshot `json:"workloads"`
}

type sideInfo struct {
	Commit string `json:"commit"`
	Host   host   `json:"host"`
}

type workloadSnapshot struct {
	Workload string `json:"workload"`
	// Pairs is how many runs were paired, parent run i with change run i
	// in line order; Wins counts, per metric, the pairs the change won.
	Pairs  int            `json:"pairs"`
	Wins   map[string]int `json:"wins"`
	Parent sideSummary    `json:"parent"`
	Change sideSummary    `json:"change"`
}

type sideSummary struct {
	Runs      int             `json:"runs"`
	Seeds     []int64         `json:"seeds"`
	Attempted int64           `json:"attempted"`
	Failed    int64           `json:"failed"`
	Metrics   []metricSummary `json:"metrics"`
}

type metricSummary struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

// buildSnapshot pairs each workload's parent and change runs in line
// order and summarizes both sides. Both sides must hold the same
// workloads, each side one commit and one host.
func buildSnapshot(parent, change []codbenchRun) (*snapshot, error) {
	var s snapshot
	var err error
	if s.Parent, err = side("parent", parent); err != nil {
		return nil, err
	}
	if s.Change, err = side("change", change); err != nil {
		return nil, err
	}
	byWorkload := func(runs []codbenchRun) (map[string][]codbenchRun, []string) {
		m := make(map[string][]codbenchRun)
		var order []string
		for _, r := range runs {
			if _, ok := m[r.workload]; !ok {
				order = append(order, r.workload)
			}
			m[r.workload] = append(m[r.workload], r)
		}
		return m, order
	}
	ps, order := byWorkload(parent)
	cs, corder := byWorkload(change)
	if len(order) != len(corder) {
		return nil, fmt.Errorf("parent runs %v, change runs %v: the sides hold different workloads", order, corder)
	}
	for _, w := range order {
		p, c := ps[w], cs[w]
		if len(c) == 0 {
			return nil, fmt.Errorf("workload %s: no change runs", w)
		}
		ws := workloadSnapshot{
			Workload: w,
			Pairs:    min(len(p), len(c)),
			Wins:     make(map[string]int, len(endToEnd)),
			Parent:   summarize(p),
			Change:   summarize(c),
		}
		for _, m := range endToEnd {
			ws.Wins[m.name] = 0
		}
		for i := 0; i < ws.Pairs; i++ {
			for _, m := range endToEnd {
				pv, cv := p[i].result.Metrics[m.name].Value, c[i].result.Metrics[m.name].Value
				if (m.better == "lower" && cv < pv) || (m.better == "higher" && cv > pv) {
					ws.Wins[m.name]++
				}
			}
		}
		s.Workloads = append(s.Workloads, ws)
	}
	return &s, nil
}

// side checks that one side's runs share a commit and a host.
func side(name string, runs []codbenchRun) (sideInfo, error) {
	if len(runs) == 0 {
		return sideInfo{}, fmt.Errorf("%s: no codbench runs", name)
	}
	info := sideInfo{Commit: runs[0].commit, Host: runs[0].host}
	for _, r := range runs[1:] {
		if r.commit != info.Commit || r.host != info.Host {
			return sideInfo{}, fmt.Errorf("%s: runs from two commits or hosts (%s on %+v, %s on %+v)",
				name, info.Commit, info.Host, r.commit, r.host)
		}
	}
	return info, nil
}

func summarize(runs []codbenchRun) sideSummary {
	s := sideSummary{Runs: len(runs)}
	for _, r := range runs {
		s.Seeds = append(s.Seeds, r.seed)
		s.Attempted += r.result.Attempted
		s.Failed += r.result.Failed
	}
	for _, m := range endToEnd {
		vals := make([]float64, 0, len(runs))
		unit := ""
		for _, r := range runs {
			if v, ok := r.result.Metrics[m.name]; ok {
				vals = append(vals, v.Value)
				unit = v.Unit
			}
		}
		sort.Float64s(vals)
		q1, q3 := quartiles(vals)
		s.Metrics = append(s.Metrics, metricSummary{
			Name: m.name, Unit: unit, Better: m.better, N: len(vals),
			Median: quantile(vals, 0.5), Q1: q1, Q3: q3,
		})
	}
	return s
}

// quantile interpolates the q-quantile of an ascending sample; 0 for an
// empty one.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo, hi := int(math.Floor(pos)), int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first and third quartile of an ascending sample
// by the exclusive method of Python's statistics.quantiles(vals, n=4),
// the one codbench's own spread and the pair acceptance rule use. Fewer
// than two samples have no spread: both quartiles are the median.
func quartiles(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		return quantile(s, 0.5), quantile(s, 0.5)
	}
	at := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		d := k*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(3)
}

// writeSnapshot reads both sides' codbench output and writes the snapshot
// file.
func writeSnapshot(out, parentPath, changePath string) error {
	parent, err := parseCodbench(parentPath)
	if err != nil {
		return err
	}
	change, err := parseCodbench(changePath)
	if err != nil {
		return err
	}
	s, err := buildSnapshot(parent, change)
	if err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out, append(b, '\n'), 0o644)
}
