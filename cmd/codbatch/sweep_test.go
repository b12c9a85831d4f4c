package main

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"codsim/cod"
	"codsim/internal/dist"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/sim"
	"codsim/internal/trace"
	"codsim/internal/transport"
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

// Without -obs a run's logger writes warnings alone to stderr. A campaign
// over two worker processes' worth of nodes on a UDP segment, one flying
// the expert and one the novice, flies every job and says why there once,
// naming both workers, and no line below a warning gets through.
func TestMixedPoolWarnsWithoutObs(t *testing.T) {
	if testing.Short() {
		t.Skip("expert dry-runs and flights in -short")
	}
	ctx := t.Context()
	base, err := transport.FreeUDPSegment("127.0.0.1", 16)
	if err != nil {
		t.Fatal(err)
	}
	lan := fmt.Sprintf("127.0.0.1:%d", base)
	for name, skill := range map[string]trace.SkillProfile{"w1": {}, "w2": trace.SkillNovice()} {
		node, err := cod.NewNode(name+"-node", cod.WithUDP(lan))
		if err != nil {
			t.Fatal(err)
		}
		w, err := newWorker(nil, node, name, 1, sim.BatchConfig{Headless: true, Skill: skill})
		if err != nil {
			t.Fatal(err)
		}
		wctx, stop := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = w.Run(wctx)
		}()
		t.Cleanup(func() {
			stop()
			<-done
			w.Close()
			node.Close()
		})
	}

	var stderr bytes.Buffer
	batch := sim.BatchConfig{Headless: true, Log: logTo(nil, &stderr, "coordinator")}
	coord, width, closeCoord, err := openCoordinator(ctx, nil, lan, "w1,w2", 1, batch)
	if err != nil {
		t.Fatal(err)
	}
	defer closeCoord()
	const count = 4
	stream, cleanup, err := newCampaignStream(nil, campaignRun{seed: 42, count: count, params: gen.DefaultParams()}, width, false)
	if err != nil {
		t.Fatal(err)
	}
	defer cleanup()
	recs, err := coord.RunStream(ctx, &campaignSource{stream: stream, count: count})
	if err != nil {
		t.Fatal(err)
	}
	if answered, audited := coord.Answered(); len(recs) != count || answered != 0 || audited != 0 {
		t.Fatalf("%d records, %d answered, %d audited; want %d flown", len(recs), answered, audited, count)
	}
	log := stderr.String()
	if n := strings.Count(log, "workers fly different run configs"); n != 1 {
		t.Fatalf("stderr says the warning %d times, want once:\n%s", n, log)
	}
	for _, want := range []string{"level=WARN", "role=coordinator", "w1: headless, skill lag 0 ", "w2: headless, skill lag "} {
		if !strings.Contains(log, want) {
			t.Errorf("stderr does not say %q:\n%s", want, log)
		}
	}
	if strings.Contains(log, "level=INFO") {
		t.Errorf("stderr carries lines below a warning:\n%s", log)
	}
}
