package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSnapshot summarizes the fixture's pairs: three fed_exam parent runs
// against four change runs (three pairs) and two cb_stream runs a side,
// interleaved, with codbench's report lines between them.
func TestSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "BENCH_test.json")
	if err := writeSnapshot(out, "testdata/parent.txt", "testdata/change.txt"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var s snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}

	wantHost := host{NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", CPU: "Intel(R) Xeon(R) Processor @ 2.10GHz"}
	if s.Parent != (sideInfo{Commit: "aaaaaaa", Host: wantHost}) || s.Change != (sideInfo{Commit: "bbbbbbb", Host: wantHost}) {
		t.Errorf("sides = %+v / %+v", s.Parent, s.Change)
	}
	if len(s.Workloads) != 2 || s.Workloads[0].Workload != "fed_exam" || s.Workloads[1].Workload != "cb_stream" {
		t.Fatalf("workloads = %+v", s.Workloads)
	}

	fed, cbs := s.Workloads[0], s.Workloads[1]
	if fed.Pairs != 3 || cbs.Pairs != 2 {
		t.Errorf("pairs = %d, %d; want 3, 2", fed.Pairs, cbs.Pairs)
	}
	// A tie is no win.
	wantWins := map[string]int{"setup_s": 2, "peak_rss_mb": 1, "primary_per_s": 2, "secondary_per_s": 1, "cpu_us_per_op": 1}
	if !reflect.DeepEqual(fed.Wins, wantWins) {
		t.Errorf("fed_exam wins = %v, want %v", fed.Wins, wantWins)
	}
	wantWins = map[string]int{"setup_s": 1, "peak_rss_mb": 1, "primary_per_s": 1, "secondary_per_s": 1, "cpu_us_per_op": 1}
	if !reflect.DeepEqual(cbs.Wins, wantWins) {
		t.Errorf("cb_stream wins = %v, want %v", cbs.Wins, wantWins)
	}

	if got := fed.Parent.Seeds; !reflect.DeepEqual(got, []int64{81, 82, 83}) {
		t.Errorf("fed_exam parent seeds = %v", got)
	}
	if fed.Change.Runs != 4 || fed.Change.Attempted != 4 || fed.Change.Failed != 0 {
		t.Errorf("fed_exam change = %d runs, %d attempted, %d failed", fed.Change.Runs, fed.Change.Attempted, fed.Change.Failed)
	}
	if cbs.Change.Attempted != 2 || cbs.Change.Failed != 1 || cbs.Parent.Failed != 0 {
		t.Errorf("cb_stream failed ops: parent %d, change %d of %d", cbs.Parent.Failed, cbs.Change.Failed, cbs.Change.Attempted)
	}

	// The statistics are Python's statistics.median and
	// statistics.quantiles(n=4) of the same values.
	for _, c := range []struct {
		side           sideSummary
		metric         string
		n              int
		median, q1, q3 float64
		unit, better   string
	}{
		{fed.Parent, "setup_s", 3, 0.026, 0.024, 0.030, "s", "lower"},
		{fed.Change, "setup_s", 4, 0.0065, 0.00525, 0.025, "s", "lower"},
		{fed.Change, "primary_per_s", 4, 1150, 1012.5, 1287.5, "1/s", "higher"},
		{cbs.Parent, "primary_per_s", 2, 1.55e6, 1.475e6, 1.625e6, "1/s", "higher"},
	} {
		var m *metricSummary
		for i := range c.side.Metrics {
			if c.side.Metrics[i].Name == c.metric {
				m = &c.side.Metrics[i]
			}
		}
		if m == nil {
			t.Fatalf("%s missing", c.metric)
		}
		near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
		if m.N != c.n || !near(m.Median, c.median) || !near(m.Q1, c.q1) || !near(m.Q3, c.q3) || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("%s = %+v, want n=%d median=%v q1=%v q3=%v %s %s", c.metric, *m, c.n, c.median, c.q1, c.q3, c.unit, c.better)
		}
	}
}

func TestSnapshotRefuses(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	headless := write("headless.txt", `{"correct":true,"attempted":1,"failed":0,"metrics":{}}`+"\n")
	if _, err := parseCodbench(headless); err == nil {
		t.Error("a result line without a header was accepted")
	}
	header := "codbench cb_stream seed=1 | nproc=2 GOMAXPROCS=2 go1.24.0 cpu=\"x\" commit=c\n"
	died := write("died.txt", header+"benchmark: cb_stream: context deadline exceeded\n"+header+
		`{"correct":true,"attempted":1,"failed":0,"metrics":{}}`+"\n")
	if _, err := parseCodbench(died); err == nil {
		t.Error("a run without a result line was accepted")
	}
	if _, err := parseCodbench(write("tail.txt", header)); err == nil {
		t.Error("a last run without a result line was accepted")
	}
	out := filepath.Join(dir, "out.json")
	cbOnly := write("cb.txt", header+`{"correct":true,"attempted":1,"failed":0,"metrics":{}}`+"\n")
	if err := writeSnapshot(out, "testdata/parent.txt", cbOnly); err == nil {
		t.Error("sides holding different workloads were accepted")
	}
}

// TestEndToEndMatchesBenchmarkJSON holds the snapshot's metric list to the
// benchmark declaration's end_to_end names and directions, in order.
func TestEndToEndMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct {
			Name   string `json:"name"`
			Better string `json:"better"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, benchdiff %d", len(decl.EndToEnd), len(endToEnd))
	}
	for i, m := range decl.EndToEnd {
		if m.Name != endToEnd[i].name || m.Better != endToEnd[i].better {
			t.Errorf("metric %d: BENCHMARK.json %s (%s), benchdiff %s (%s)", i, m.Name, m.Better, endToEnd[i].name, endToEnd[i].better)
		}
	}
}
