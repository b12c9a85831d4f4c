package dist

import (
	"context"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"codsim/cod"
	"codsim/internal/obs"
	"codsim/internal/sim"
)

// TestObsLiveSweepScrape drives a full MemLAN sweep with the telemetry
// plane attached, and every job's run scrapes /metrics and /debug/tablez
// once: the scrapes overlap the sweep and, across the worker's two slots,
// each other, so under -race this doubles as the data-race check on the
// plane's scrape, the span recorder, and the Sample() snapshots.
// Afterwards it asserts the core series the CI smoke greps for, and that
// every record came home with a span and phase latencies.
func TestObsLiveSweepScrape(t *testing.T) {
	fed := cod.NewFederation()
	defer fed.Close()

	plane := obs.NewPlane("test", io.Discard)
	spans := plane.SpanSink()
	ts := httptest.NewServer(plane.Handler())
	defer ts.Close()
	get := func(path string) string {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Errorf("GET %s: %v", path, err)
			return ""
		}
		defer resp.Body.Close()
		var b strings.Builder
		if _, err := io.Copy(&b, resp.Body); err != nil {
			t.Errorf("GET %s: read: %v", path, err)
		}
		return b.String()
	}
	run := stubRunner(0)

	wnode, err := fed.Node("w1-node")
	if err != nil {
		t.Fatal(err)
	}
	worker, err := NewWorker(wnode, WorkerConfig{
		Name:  "w1",
		Slots: 2,
		Run: func(ctx context.Context, job Job, cfg sim.BatchConfig) Record {
			get("/metrics")
			get("/debug/tablez")
			return run(ctx, job, cfg)
		},
		Spans: spans,
	})
	if err != nil {
		t.Fatal(err)
	}
	wctx, stopWorker := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = worker.Run(wctx)
		_ = worker.Close()
	}()
	defer wg.Wait()
	defer stopWorker()

	cnode, err := fed.Node("coord-node")
	if err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(cnode, CoordinatorConfig{Sweep: 42, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	plane.AddNode("w1-node", wnode)
	plane.AddNode("coord-node", cnode)
	plane.AddDispatch(worker.Sample)
	plane.AddDispatch(coord.Sample)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitWorkers(ctx, []string{"w1"}); err != nil {
		t.Fatalf("WaitWorkers: %v", err)
	}
	recs, err := coord.Run(ctx, testJobs(8))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recs) != 8 {
		t.Fatalf("got %d records, want 8", len(recs))
	}
	for _, r := range recs {
		if r.Span == "" {
			t.Errorf("job %d: record has no span ID", r.Job)
		}
		if r.QueueMS < 0 || r.DispatchMS < 0 {
			t.Errorf("job %d: negative phase latency queue=%v dispatch=%v",
				r.Job, r.QueueMS, r.DispatchMS)
		}
	}

	// The scrape reads every source itself, so it sees the end state.
	out := get("/metrics")
	for _, want := range []string{
		"codsim_cb_channel_frames_total{",
		`codsim_dist_jobs{role="coordinator",state="done"} 8`,
		`codsim_dist_jobs{role="worker",state="finished"} 8`,
		`codsim_dist_jobs{role="worker",state="slots"} 2`,
		`codsim_dist_jobs{role="coordinator",state="grants"} `,
		`codsim_dist_worker{worker="w1",stat="done"} 8`,
		`codsim_job_phase_seconds_count{phase="queue"} 8`,
		`codsim_job_phase_seconds_count{phase="dispatch"} 8`,
		`codsim_job_phase_seconds_count{phase="run"} 8`,
		"codsim_job_phase_seconds_bucket{",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("final scrape missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("final scrape:\n%s", out)
	}
}
