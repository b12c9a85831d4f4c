package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"codsim/cod"
)

// TestWritePrometheusGolden pins the text exposition format end to end:
// HELP/TYPE lines, label rendering, integer formatting, histogram
// bucket/sum/count rows, and the name-sorted stable order.
func TestWritePrometheusGolden(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("test_events_total", "events seen").Add(3)
	c := reg.CounterVec("test_depth", "queue depth", "queue", "node")
	c.With("claims", "n1").Add(4)
	c.With("results", "n1").Add(2)
	h := reg.Histogram("test_latency_seconds", "request latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_depth queue depth
# TYPE test_depth counter
test_depth{queue="claims",node="n1"} 4
test_depth{queue="results",node="n1"} 2
# HELP test_events_total events seen
# TYPE test_events_total counter
test_events_total 3
# HELP test_latency_seconds request latency
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.1"} 1
test_latency_seconds_bucket{le="1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.55
test_latency_seconds_count 3
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryIdempotentAndChecked(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("x_total", "")
	b := reg.Counter("x_total", "")
	if a != b {
		t.Error("re-registering the same counter returned a different instrument")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registering a counter as a histogram did not panic")
			}
		}()
		reg.Histogram("x_total", "", nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("re-registering with different labels did not panic")
			}
		}()
		reg.CounterVec("x_total", "", "node")
	}()
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.CounterVec("esc", "", "v").With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `esc{v="a\"b\\c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaped series %q missing from:\n%s", want, b.String())
	}
}

// fakeBackbone serves canned stats/tables through the narrow interface the
// plane consumes — the same shape a *cod.Node presents.
type fakeBackbone struct {
	stats cod.Stats
	subs  []cod.TableEntry
	pubs  []cod.TableEntry
}

func (f *fakeBackbone) Stats() *cod.Stats { return &f.stats }

func (f *fakeBackbone) Tables() (pubs, subs []cod.TableEntry) { return f.pubs, f.subs }

func newFakeBackbone() *fakeBackbone {
	f := &fakeBackbone{
		pubs: []cod.TableEntry{{LP: "dynamics", Class: "CraneState", Channels: 2, Stalls: 3}},
		subs: []cod.TableEntry{{
			LP: "visual", Class: "CraneState", Channels: 2, Policy: "latest-value",
			Delivered: 14, Dropped: 5, Conflated: 2,
			ByChannel: []cod.ChannelTally{
				{Channel: 7, Peer: "dyn-pc", Delivered: 9, Dropped: 5, Conflated: 2},
				{Channel: 9, Peer: "sim-pc", Delivered: 5},
			},
		}},
	}
	f.stats.ReflectsDelivered.Add(14)
	f.stats.MailboxDropped.Add(5)
	f.stats.Conflations.Add(2)
	return f
}

// scrapeMetrics serves one /metrics request and returns the body.
func scrapeMetrics(p *Plane) string {
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestSamplerChannelSeries asserts that one scrape turns a backbone's
// per-channel tallies into labeled codsim_cb_* series.
func TestSamplerChannelSeries(t *testing.T) {
	p := NewPlane("test", io.Discard)
	p.AddNode("disp-pc", newFakeBackbone())
	out := scrapeMetrics(p)
	for _, want := range []string{
		`codsim_cb_channel_frames_total{node="disp-pc",lp="visual",class="CraneState",peer="dyn-pc",channel="7"} 9`,
		`codsim_cb_channel_dropped_total{node="disp-pc",lp="visual",class="CraneState",peer="dyn-pc",channel="7"} 5`,
		`codsim_cb_channel_conflated_total{node="disp-pc",lp="visual",class="CraneState",peer="dyn-pc",channel="7"} 2`,
		`codsim_cb_channel_frames_total{node="disp-pc",lp="visual",class="CraneState",peer="sim-pc",channel="9"} 5`,
		`codsim_cb_pub_credit_stalls_total{node="disp-pc",lp="dynamics",class="CraneState"} 3`,
		`codsim_cb_stat{node="disp-pc",stat="reflects_delivered"} 14`,
		`codsim_cb_stat{node="disp-pc",stat="mailbox_dropped"} 5`,
		`codsim_cb_stat{node="disp-pc",stat="conflations"} 2`,
		`codsim_cb_sub_channels{node="disp-pc",lp="visual",class="CraneState",policy="latest-value"} 2`,
		`codsim_cb_sub_frames_total{node="disp-pc",lp="visual",class="CraneState",policy="latest-value"} 14`,
		`codsim_cb_sub_dropped_total{node="disp-pc",lp="visual",class="CraneState",policy="latest-value"} 5`,
		`codsim_cb_sub_conflated_total{node="disp-pc",lp="visual",class="CraneState",policy="latest-value"} 2`,
		`codsim_obs_samples_total 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("series %q missing from scrape:\n%s", want, out)
		}
	}
}

// TestSamplerDispatchSeries asserts coordinator and worker dispatch
// samples land as codsim_dist_* series.
func TestSamplerDispatchSeries(t *testing.T) {
	p := NewPlane("test", io.Discard)
	p.AddDispatch(func() DispatchSample {
		return DispatchSample{
			Role: "coordinator", Name: "sweep-1",
			Pending: 3, Granted: 2, Done: 5, Attempts: 11, Redispatches: 1, Grants: 14,
			Workers: []WorkerSample{{Name: "host1", Done: 5, Throughput: 2.5, Busy: 2, Slots: 4, SinceSeen: 0.25}},
		}
	})
	p.AddDispatch(func() DispatchSample {
		return DispatchSample{Role: "worker", Name: "host1", Slots: 4, Busy: 2, Finished: 5, ResultsAcked: 5}
	})
	out := scrapeMetrics(p)
	for _, want := range []string{
		`codsim_dist_jobs{role="coordinator",state="in_flight"} 5`,
		`codsim_dist_jobs{role="coordinator",state="pending"} 3`,
		`codsim_dist_jobs{role="coordinator",state="redispatches"} 1`,
		`codsim_dist_jobs{role="coordinator",state="grants"} 14`,
		`codsim_dist_jobs{role="worker",state="busy"} 2`,
		`codsim_dist_jobs{role="worker",state="finished"} 5`,
		`codsim_dist_jobs{role="worker",state="results_acked"} 5`,
		`codsim_dist_worker{worker="host1",stat="done"} 5`,
		`codsim_dist_worker{worker="host1",stat="throughput_jobs_per_sec"} 2.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("series %q missing from scrape:\n%s", want, out)
		}
	}
}

// TestScrapeDropsDepartedSeries pins that a series lives exactly as long
// as its source reports it: once a channel leaves Tables, a subscription
// row closes or a worker leaves DispatchSample.Workers, the next scrape
// has none of its series, while a second node's stay.
func TestScrapeDropsDepartedSeries(t *testing.T) {
	disp := newFakeBackbone()
	workers := []WorkerSample{{Name: "host1", Done: 5}, {Name: "host2", Done: 3}}
	p := NewPlane("test", io.Discard)
	p.AddNode("disp-pc", disp)
	p.AddNode("sim-pc", newFakeBackbone())
	p.AddDispatch(func() DispatchSample {
		return DispatchSample{Role: "coordinator", Name: "sweep-1", Workers: workers}
	})
	scrape := func(stage string, present, absent []string) {
		t.Helper()
		out := scrapeMetrics(p)
		for _, want := range present {
			if !strings.Contains(out, want) {
				t.Errorf("%s: series %q missing from scrape:\n%s", stage, want, out)
			}
		}
		for _, gone := range absent {
			if strings.Contains(out, gone) {
				t.Errorf("%s: departed series %q still in scrape:\n%s", stage, gone, out)
			}
		}
		// Two nodes report every family, each written under one header.
		if n := strings.Count(out, "# TYPE codsim_cb_sub_frames_total gauge\n"); n != 1 {
			t.Errorf("%s: codsim_cb_sub_frames_total has %d TYPE lines, want 1", stage, n)
		}
	}
	const (
		ch7  = `{node="disp-pc",lp="visual",class="CraneState",peer="dyn-pc",channel="7"}`
		ch9  = `{node="disp-pc",lp="visual",class="CraneState",peer="sim-pc",channel="9"}`
		sub  = `{node="disp-pc",lp="visual",class="CraneState",policy="latest-value"}`
		sim7 = `codsim_cb_channel_frames_total{node="sim-pc",lp="visual",class="CraneState",peer="dyn-pc",channel="7"} 9`
		host = `codsim_dist_worker{worker="host1",stat="done"} 5`
	)
	scrape("start", []string{ch7, ch9, sub, sim7, host, `worker="host2"`}, nil)

	// Channel 7 tears down and host2 leaves the sweep.
	disp.subs[0].ByChannel = disp.subs[0].ByChannel[1:]
	workers = workers[:1]
	scrape("channel and worker gone", []string{ch9, sub, sim7, host}, []string{ch7, `worker="host2"`})

	// The subscription closes; its publication row stays.
	disp.subs = nil
	scrape("subscription closed",
		[]string{sim7, host, `codsim_cb_pub_credit_stalls_total{node="disp-pc",lp="dynamics",class="CraneState"} 3`},
		[]string{ch9, sub})
}

func TestSpans(t *testing.T) {
	reg := NewRegistry()
	sp := NewSpans(reg)
	sp.Observe(PhaseQueue, 50*time.Millisecond)
	sp.Observe(PhaseRun, 2*time.Second)
	sp.Observe(PhaseRun, -time.Second) // clock step clamps to 0, still counted
	var nilSpans *Spans
	nilSpans.Observe(PhaseAck, time.Second) // nil recorder drops silently

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`codsim_job_phase_seconds_count{phase="queue"} 1`,
		`codsim_job_phase_seconds_count{phase="run"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("series %q missing from scrape:\n%s", want, out)
		}
	}
	if strings.Contains(out, `phase="ack"`) {
		t.Error("nil span recorder leaked an observation")
	}

	a, b2 := MintSpanID(), MintSpanID()
	if a == b2 || a == "" {
		t.Errorf("span IDs not unique: %q, %q", a, b2)
	}
}

// get GETs url and returns the body, failing the test on any error or a
// status other than 200.
func get(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var b strings.Builder
	if _, err := io.Copy(&b, resp.Body); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestServerEndpoints(t *testing.T) {
	p := NewPlane("test", io.Discard)
	p.Registry.Counter("test_up", "").Inc()
	p.AddNode("disp-pc", newFakeBackbone())
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	if out := get(t, ts.URL+"/metrics"); !strings.Contains(out, "test_up 1") {
		t.Errorf("/metrics missing test_up:\n%s", out)
	}
	if out := get(t, ts.URL+"/healthz"); !strings.HasPrefix(out, "ok") {
		t.Errorf("/healthz returned %q", out)
	}
	// Each table is its header and rows in columns two spaces apart, the
	// last column unpadded.
	tablez := get(t, ts.URL+"/debug/tablez")
	for _, want := range []string{
		"== node disp-pc ==\n",
		"\npublications\n" +
			"LP        CLASS       CHANNELS  STALLS\n" +
			"dynamics  CraneState  2         3\n",
		"\nsubscriptions\n" +
			"LP      CLASS       POLICY        CHANNELS  FRAMES  DROPPED  CONFLATED  BY-CHANNEL\n" +
			"visual  CraneState  latest-value  2         14      5        2          ch7(dyn-pc):9/5/2 ch9(sim-pc):5/0/0\n",
	} {
		if !strings.Contains(tablez, want) {
			t.Errorf("/debug/tablez missing %q:\n%s", want, tablez)
		}
	}
}

// TestPlaneCollectsOnScrape pins the collect-on-scrape contract: /metrics
// must reflect the state at scrape time — per-channel tallies vanish when
// a virtual channel tears down, so a scrape that read older state could
// miss a short-lived channel entirely.
func TestPlaneCollectsOnScrape(t *testing.T) {
	p := NewPlane("test", io.Discard)
	p.AddNode("disp-pc", newFakeBackbone())
	ts := httptest.NewServer(p.Handler())
	defer ts.Close()

	out := get(t, ts.URL+"/metrics")
	want := `codsim_cb_channel_frames_total{node="disp-pc",lp="visual",class="CraneState",peer="dyn-pc",channel="7"} 9`
	if !strings.Contains(out, want) {
		t.Errorf("scrape missing %q:\n%s", want, out)
	}
}

// TestPlaneReadsSourcesOnScrape pins that /metrics is the only reader of
// the registered sources: one read per scrape, none from the other
// endpoints, none in the background and none at Close.
func TestPlaneReadsSourcesOnScrape(t *testing.T) {
	p := NewPlane("test", io.Discard)
	var calls atomic.Int64
	p.AddDispatch(func() DispatchSample {
		calls.Add(1)
		return DispatchSample{Role: "worker", Name: "host1"}
	})
	addr, err := p.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + addr
	get(t, url+"/metrics")
	out := get(t, url+"/metrics")
	get(t, url+"/healthz")
	get(t, url+"/debug/tablez")
	p.Close()

	if n := calls.Load(); n != 2 {
		t.Errorf("dispatch source read %d times, want 2 (one per /metrics scrape)", n)
	}
	if !strings.Contains(out, "codsim_obs_samples_total 2") {
		t.Errorf("second scrape does not count two scrapes:\n%s", out)
	}
}

// BenchmarkObsCounter is the instrumentation hot path: incrementing a
// resolved counter child must not allocate (the BENCH_baseline.json
// ceiling is 0 allocs/op), so metric points can sit on cb/dist fast paths.
func BenchmarkObsCounter(b *testing.B) {
	reg := NewRegistry()
	c := reg.CounterVec("bench_events_total", "", "node").With("n1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

// BenchmarkObsSampler is the source write of one /metrics scrape over a
// realistic node and a coordinator: every source read once and its
// families written into the scrape's reused buffer. It must not allocate
// (the BENCH_baseline.json ceiling is 0 allocs/op). The source returns
// one prebuilt Workers slice, as a source that allocated per call would
// charge its own garbage here.
func BenchmarkObsSampler(b *testing.B) {
	p := NewPlane("bench", io.Discard)
	p.AddNode("disp-pc", newFakeBackbone())
	workers := []WorkerSample{{Name: "host1", Done: 5}}
	p.AddDispatch(func() DispatchSample {
		return DispatchSample{Role: "coordinator", Name: "sweep-1", Pending: 3, Workers: workers}
	})
	s := new(scrape)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.b = s.b[:0]
		p.writeSources(s)
	}
}
