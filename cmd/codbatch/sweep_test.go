package main

import (
	"strings"
	"testing"

	"codsim/internal/dist"
	"codsim/internal/scenario"
	"codsim/internal/sim"
	"codsim/internal/trace"
)

// A local sweep goes through the dist coordinator like a multi-host one,
// so a jittered skill reaches each run only by the job's SkillSeed riding
// the protocol to the in-process worker. Every record must be the run
// sim.RunOne flies for that job and seed.
func TestLocalSweepFliesTheJobsTrainee(t *testing.T) {
	if testing.Short() {
		t.Skip("headless library sweep in -short")
	}
	ctx := t.Context()
	skill := trace.SkillNovice()
	skill.Jitter = 0.3
	batch := sim.BatchConfig{Headless: true, Skill: skill}
	coord, _, closeCoord, err := openCoordinator(ctx, nil, "", "", 2, batch)
	if err != nil {
		t.Fatal(err)
	}
	defer closeCoord()

	jobs := dist.JobsFor(scenario.Library(), 2)
	recs, err := coord.RunStream(ctx, dist.SliceJobs(jobs))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(jobs) {
		t.Fatalf("%d records for %d jobs", len(recs), len(jobs))
	}
	repeatsDiffer := false
	for i, j := range jobs {
		got := recs[i]
		want := dist.NewRecord(j, sim.RunOne(ctx, j.Spec, batch, j.SkillSeed()), "local")
		if got.Job != j.ID || got.Worker != "local" {
			t.Fatalf("record %d: job %d on %q, want job %d on local", i, got.Job, got.Worker, j.ID)
		}
		if got.Passed != want.Passed || got.Score != want.Score || got.Phase != want.Phase || got.SimSec != want.SimSec {
			t.Errorf("%s: dist passed=%v score=%v phase=%s sim=%v, RunOne passed=%v score=%v phase=%s sim=%v",
				j, got.Passed, got.Score, got.Phase, got.SimSec, want.Passed, want.Score, want.Phase, want.SimSec)
		}
		if i >= len(jobs)/2 {
			first := recs[i-len(jobs)/2]
			repeatsDiffer = repeatsDiffer || first.Score != got.Score || first.SimSec != got.SimSec
		}
	}
	// With every seed the same, both repeats would fly one trainee and
	// the comparison above could not tell a dropped seed from a carried one.
	if !repeatsDiffer {
		t.Fatal("both repeats flew identical runs: the jitter seed never varied")
	}
}

// An empty worker list is refused before the coordinator binds a socket,
// so a typo cannot leave a coordinator waiting for nobody.
func TestCoordinatorNeedsWorkerNames(t *testing.T) {
	_, _, _, err := openCoordinator(t.Context(), nil, "256.0.0.1:1", " , ", 1, sim.BatchConfig{Headless: true})
	if err == nil || !strings.Contains(err.Error(), "needs at least one worker name") {
		t.Fatalf("err = %v, want the missing-worker-name error", err)
	}
}
