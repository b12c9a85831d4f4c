package dist

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/sim"
)

func TestRecordRoundTripJSONL(t *testing.T) {
	job := Job{ID: 7, Seed: 3, Spec: scenario.Classic()}
	res := sim.BatchResult{
		Scenario: "classic-exam",
		Title:    "Licensing exam",
		State:    fom.ScenarioState{Phase: fom.PhaseComplete, Score: 87.5, Elapsed: 401.2},
		Passed:   true,
		Wall:     1500 * time.Millisecond,
	}
	recs := []Record{
		NewRecord(job, res, "worker-1"),
		{Job: 8, Scenario: "blind-lift", Phase: "failed", Err: "boom"},
	}
	if recs[0].Phase != "complete" || !recs[0].Passed || recs[0].Seed != 3 {
		t.Fatalf("NewRecord = %+v", recs[0])
	}

	path := filepath.Join(t.TempDir(), "results.jsonl")
	if err := SaveRecords(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, recs)
	}
}

func TestRecordFromError(t *testing.T) {
	rec := NewRecord(Job{ID: 1}, sim.BatchResult{
		Scenario: "x", Err: errors.New("build: no such node"),
	}, "w")
	if rec.Err != "build: no such node" || rec.Passed {
		t.Fatalf("rec = %+v", rec)
	}
}

func TestStatsNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1) // 1..100
	}
	s := statsOf(vals)
	if s.P50 != 50 || s.P90 != 90 || s.P99 != 99 {
		t.Errorf("percentiles over 1..100 = %+v", s)
	}
	one := statsOf([]float64{42})
	if one.P50 != 42 || one.P99 != 42 {
		t.Errorf("single sample = %+v", one)
	}
	if z := statsOf(nil); z != (Stats{}) {
		t.Errorf("empty = %+v", z)
	}
}

func TestBuildReportAndWrite(t *testing.T) {
	var recs []Record
	for i := 0; i < 10; i++ {
		recs = append(recs,
			Record{Scenario: "a", Passed: true, Score: float64(80 + i), WallSec: 1},
			Record{Scenario: "b", Passed: i < 5, Score: float64(50 + i), WallSec: 2, Err: ""},
		)
	}
	rep := BuildReport(recs)
	if rep.Total.Runs != 20 || rep.Total.Passed != 15 {
		t.Fatalf("total = %+v", rep.Total)
	}
	if len(rep.Scenarios) != 2 || rep.Scenarios[0].Scenario != "a" || rep.Scenarios[1].Scenario != "b" {
		t.Fatalf("scenarios = %+v", rep.Scenarios)
	}
	if got := rep.Scenarios[1].PassRate(); got != 0.5 {
		t.Errorf("b pass rate = %v", got)
	}
	if rep.Scenarios[0].Score.P50 != 84 {
		t.Errorf("a p50 = %v", rep.Scenarios[0].Score.P50)
	}

	var sb strings.Builder
	WriteReport(&sb, rep)
	out := sb.String()
	for _, want := range []string{"SCENARIO", "TOTAL", "a", "b", "75%"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestBatchReportCountsFailures pins the report a local batch prints
// (examples/campaign): sim.BatchResults through NewRecord and BuildReport
// into WriteReport count a pass, an error and a failed exam, without
// running any federation.
func TestBatchReportCountsFailures(t *testing.T) {
	results := []sim.BatchResult{
		{Scenario: "a", Passed: true, State: fom.ScenarioState{Score: 90}},
		{Scenario: "b", Err: errors.New("boom")},
		{Scenario: "c", State: fom.ScenarioState{Phase: fom.PhaseFailed, Score: 12}},
	}
	recs := make([]Record, len(results))
	for i, res := range results {
		recs[i] = NewRecord(Job{ID: int64(i)}, res, "")
	}
	rep := BuildReport(recs)
	if rep.Total.Runs != 3 || rep.Total.Passed != 1 || rep.Total.Errors != 1 {
		t.Fatalf("total = %+v, want 3 runs, 1 passed, 1 error", rep.Total)
	}
	var sb strings.Builder
	WriteReport(&sb, rep)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	total := strings.Fields(lines[len(lines)-1])
	if len(lines) != 5 || total[0] != "TOTAL" || total[1] != "3" || total[2] != "33%" || total[3] != "1" {
		t.Errorf("want a header, three scenario lines and TOTAL 3 runs, 33%%, 1 error:\n%s", sb.String())
	}
}

// PASS% rounds down: one failed run in a thousand reads 99%, not 100%,
// and 29 passes in 100 read 29% although 0.29*100 is a hair under 29.
func TestReportPassPercentRoundsDown(t *testing.T) {
	for _, c := range []struct {
		passed, runs int
		want         string
	}{{999, 1000, "99%"}, {1000, 1000, "100%"}, {29, 100, "29%"}, {1, 3, "33%"}, {0, 5, "0%"}} {
		recs := make([]Record, c.runs)
		for i := range recs {
			recs[i] = Record{Scenario: "a", Passed: i < c.passed}
		}
		var sb strings.Builder
		WriteReport(&sb, BuildReport(recs))
		lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
		total := strings.Fields(lines[len(lines)-1])
		if total[0] != "TOTAL" || total[2] != c.want {
			t.Errorf("%d of %d passed: total line %q, want PASS%% %s", c.passed, c.runs, lines[len(lines)-1], c.want)
		}
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	old := []Record{
		{Scenario: "a", Passed: true, Score: 90},
		{Scenario: "a", Passed: true, Score: 92},
		{Scenario: "b", Passed: true, Score: 88},
		{Scenario: "gone", Passed: true, Score: 70},
	}
	cur := []Record{
		{Scenario: "a", Passed: true, Score: 91},
		{Scenario: "a", Passed: false, Score: 30, Err: "tip-over"}, // pass-rate drop
		{Scenario: "b", Passed: true, Score: 70},                   // score drop > tolerance
		{Scenario: "new", Passed: false, Score: 0},                 // not in old: skipped
	}
	regs := Compare(old, cur)
	if len(regs) != 2 {
		t.Fatalf("regressions = %+v", regs)
	}
	if regs[0].Scenario != "a" || !strings.Contains(regs[0].Reason, "pass rate") {
		t.Errorf("regs[0] = %+v", regs[0])
	}
	if regs[1].Scenario != "b" || !strings.Contains(regs[1].Reason, "p50 score") {
		t.Errorf("regs[1] = %+v", regs[1])
	}

	var sb strings.Builder
	if n := WriteCompare(&sb, old, cur); n != 2 {
		t.Errorf("WriteCompare = %d:\n%s", n, sb.String())
	}
	if n := WriteCompare(&sb, old, old); n != 0 {
		t.Errorf("self-compare regressed: %d", n)
	}
}

func TestJobsFor(t *testing.T) {
	specs := []scenario.Spec{scenario.Classic(), scenario.BlindLift()}
	jobs := JobsFor(specs, 3)
	if len(jobs) != 6 {
		t.Fatalf("jobs = %d", len(jobs))
	}
	for i, j := range jobs {
		if j.ID != int64(i) {
			t.Errorf("job %d: ID %d", i, j.ID)
		}
		if want := int64(i/2 + 1); j.Seed != want {
			t.Errorf("job %d: seed %d, want %d", i, j.Seed, want)
		}
		if j.Spec.Name != specs[i%2].Name {
			t.Errorf("job %d: spec %s", i, j.Spec.Name)
		}
	}
}
