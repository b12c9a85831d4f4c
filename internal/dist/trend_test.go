package dist

import (
	"path/filepath"
	"strings"
	"testing"

	"codsim/internal/scenario"
	"codsim/internal/sim"
)

// TestTrendAcrossSweeps stores three sweeps' JSONL files and checks the
// time-series rollup: per-scenario rows in file order with pass rate and
// p50 score, and the drift visible between sweeps.
func TestTrendAcrossSweeps(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, recs []Record) {
		t.Helper()
		if err := SaveRecords(filepath.Join(dir, name), recs); err != nil {
			t.Fatal(err)
		}
	}
	write("2026-07-01.jsonl", []Record{
		{Job: 0, Scenario: "classic-exam", Passed: true, Score: 90, Alarms: 2},
		{Job: 1, Scenario: "classic-exam", Passed: true, Score: 88},
		{Job: 2, Scenario: "tandem-beam", Passed: true, Score: 88},
	})
	write("2026-07-15.jsonl", []Record{
		{Job: 0, Scenario: "classic-exam", Passed: true, Score: 84},
		{Job: 1, Scenario: "classic-exam", Passed: false, Score: 40},
		{Job: 2, Scenario: "tandem-beam", Passed: true, Score: 92},
	})
	// A sweep with a different selection: missing scenarios must render
	// as absent, not as zero rows.
	write("2026-07-28.jsonl", []Record{
		{Job: 0, Scenario: "classic-exam", Passed: true, Score: 86},
	})

	sweeps, err := LoadSweepDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweeps) != 3 || sweeps[0].Name != "2026-07-01" || sweeps[2].Name != "2026-07-28" {
		t.Fatalf("sweeps = %+v", sweeps)
	}
	if got := sweeps[1].Report.Total.Runs; got != 3 {
		t.Fatalf("sweep 2 runs = %d", got)
	}

	var sb strings.Builder
	WriteTrend(&sb, sweeps)
	out := sb.String()
	for _, want := range []string{
		"classic-exam", "tandem-beam", "TOTAL",
		"2026-07-01", "2026-07-15", "2026-07-28",
		"50% pass", // classic-exam's mid-sweep dip
		"(not in sweep)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trend output missing %q:\n%s", want, out)
		}
	}

	if _, err := LoadSweepDir(t.TempDir()); err == nil {
		t.Error("empty trend dir accepted")
	}
}

// TestRecordCarriesAlarms pins the instructor-alarm rollup: counts flow
// from BatchResult through the JSONL record into the per-scenario report
// group.
func TestRecordCarriesAlarms(t *testing.T) {
	res := sim.BatchResult{Scenario: "classic-exam", Passed: true, Alarms: 4}
	rec := NewRecord(Job{ID: 7}, res, "w1")
	if rec.Alarms != 4 {
		t.Fatalf("record alarms = %d", rec.Alarms)
	}
	rep := BuildReport([]Record{rec, {Scenario: "classic-exam", Alarms: 1}})
	if rep.Total.Alarms != 5 || rep.Scenarios[0].Alarms != 5 {
		t.Fatalf("report alarms = %d/%d", rep.Total.Alarms, rep.Scenarios[0].Alarms)
	}
	var sb strings.Builder
	WriteReport(&sb, rep)
	if !strings.Contains(sb.String(), "ALARMS") {
		t.Errorf("report table lacks the ALARMS column:\n%s", sb.String())
	}
}

// TestMemLANTandemSweep shards the two multi-crane scenarios over a
// MemLAN coordinator/worker pair running real headless federation jobs —
// the acceptance path proving tandem work flows through the dist
// machinery unchanged.
func TestMemLANTandemSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("real headless runs")
	}
	coord, ctx := startPool(t, eventFed(t), CoordinatorConfig{}, WorkerConfig{Slots: 2, Batch: sim.BatchConfig{Headless: true}}, "w1")
	specs := []scenario.Spec{scenario.TandemBeam(), scenario.TwinYard()}
	recs, err := coord.Run(ctx, JobsFor(specs, 1))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	for _, r := range recs {
		if !r.Passed || r.Err != "" {
			t.Errorf("%s: passed=%v err=%q score=%.1f", r.Scenario, r.Passed, r.Err, r.Score)
		}
		if r.Phase != "complete" {
			t.Errorf("%s: phase %q", r.Scenario, r.Phase)
		}
	}
}
