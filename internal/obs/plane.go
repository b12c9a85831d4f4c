package obs

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"codsim/cod"
)

// Backbone is the narrow view of a node the telemetry plane consumes:
// the exported stats counters and table snapshots of the public cod SDK.
// *cod.Node satisfies it. obs deliberately never touches the backbone
// internals — everything it needs crosses this interface.
type Backbone interface {
	Stats() *cod.Stats
	Tables() (pubs, subs []cod.TableEntry)
}

// DispatchSample is one scrape of a dist coordinator's or worker's
// dispatch state. dist produces these (Coordinator.Sample, Worker.Sample)
// and the Plane turns them into codsim_dist_* series; the struct is plain
// data so obs never has to import dist.
type DispatchSample struct {
	// Role is "coordinator" or "worker"; Name the role instance's segment
	// identity (worker name, or the sweep ID for a coordinator).
	Role string
	Name string

	// Coordinator state: jobs currently pending a grant or granted
	// (InFlight = Pending + Granted), finished jobs, attempts dispatched,
	// re-dispatches of lost grants, and grant publications — a healthy
	// sweep grants each attempt once, so Grants above Attempts counts
	// grants sent again to a worker whose grant channel came up late.
	Pending      int64
	Granted      int64
	Done         int64
	Attempts     int64
	Redispatches int64
	Grants       int64

	// Worker state: slot occupancy and the local job ledger.
	Slots        int64
	Busy         int64
	Finished     int64
	ResultsAcked int64

	// Workers is the coordinator's per-worker progress view, for the
	// dispatch-weighting follow-on: who is fast, who is mute.
	Workers []WorkerSample
}

// WorkerSample is a coordinator's view of one worker's progress.
type WorkerSample struct {
	Name string
	// Done counts results this worker delivered this sweep; Throughput is
	// Done over the time since the sweep started, in jobs per second.
	Done       int64
	Throughput float64
	// Busy and Slots mirror the worker's last heartbeat; SinceSeen is the
	// age of that heartbeat in seconds.
	Busy      int64
	Slots     int64
	SinceSeen float64
}

// node is one registered backbone with its metric label; a scrape's copy
// also holds that scrape's one reading of it.
type node struct {
	name       string
	bb         Backbone
	st         *cod.Stats
	pubs, subs []cod.TableEntry
}

// scrape is one /metrics response's storage, reused by the next scrape:
// the sources registered at its start, their readings and the output.
type scrape struct {
	nodes []node
	fns   []func() DispatchSample
	disp  []DispatchSample
	expo
}

// Plane is a process's telemetry plane: the metric registry, the span
// recorder, the structured logger, and the opt-in HTTP face over them:
//
//	/metrics       Prometheus text exposition of the registry and sources
//	/healthz       liveness: 200 "ok" with uptime
//	/debug/tablez  live Backbone.Tables pub/sub tables of registered nodes
//	/debug/pprof/  the standard runtime profiles
//
// Registered sources are read only when /metrics is scraped: each node
// and dispatch source once, and the codsim_cb_* and codsim_dist_*
// families are written from that reading after the registry's, in the
// order the sources were registered. So a scrape sees the state at scrape
// time, and a series appears exactly while its source reports it: the
// per-channel series of a virtual channel that tore down, a closed
// subscription's or a departed worker's are gone from the next scrape.
// Nothing listens unless Start is called. A nil *Plane is a valid
// disabled plane: AddNode, AddDispatch, Close, Log and SpanSink are safe
// no-ops on it.
type Plane struct {
	Registry *Registry

	spans   *Spans
	log     *slog.Logger
	start   time.Time
	mux     *http.ServeMux
	samples *Counter

	mu       sync.Mutex
	nodes    []node
	dispatch []func() DispatchSample
	srv      *http.Server
	idle     *scrape // the last scrape's storage, taken by the next
}

// NewPlane builds a plane around a fresh registry. role tags log lines;
// logW receives them (typically os.Stderr).
func NewPlane(role string, logW io.Writer) *Plane {
	reg := NewRegistry()
	p := &Plane{
		Registry: reg,
		spans:    NewSpans(reg),
		log:      NewLogger(logW, role),
		start:    time.Now(),
		samples: reg.Counter("codsim_obs_samples_total",
			"/metrics scrapes served, each one pass over every registered source"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", p.handleMetrics)
	mux.HandleFunc("/healthz", p.handleHealthz)
	mux.HandleFunc("/debug/tablez", p.handleTablez)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	p.mux = mux
	return p
}

// AddNode registers a backbone under the given node label, for both its
// /metrics series and /debug/tablez.
func (p *Plane) AddNode(name string, bb Backbone) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.nodes = append(p.nodes, node{name: name, bb: bb})
	p.mu.Unlock()
}

// AddDispatch registers a dispatch-state source (Coordinator.Sample or
// Worker.Sample from dist, or any closure yielding a DispatchSample).
func (p *Plane) AddDispatch(fn func() DispatchSample) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.dispatch = append(p.dispatch, fn)
	p.mu.Unlock()
}

// Handler returns the plane's mux, for embedding into an existing server
// or an httptest fixture.
func (p *Plane) Handler() http.Handler { return p.mux }

// Start binds addr (":0" picks a free port), serves the plane in a
// background goroutine, and returns the bound address. Close stops it.
func (p *Plane) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: p.mux}
	p.mu.Lock()
	p.srv = srv
	p.mu.Unlock()
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}

// Close stops the listener; in-flight requests are abandoned (this is a
// debug plane, not a service).
func (p *Plane) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	srv := p.srv
	p.srv = nil
	p.mu.Unlock()
	if srv != nil {
		_ = srv.Close()
	}
}

// Log returns the plane's logger, or a discard logger for a nil plane.
func (p *Plane) Log() *slog.Logger {
	if p == nil {
		return Nop()
	}
	return p.log
}

// SpanSink returns the plane's span recorder; nil-safe (a nil *Spans
// drops observations).
func (p *Plane) SpanSink() *Spans {
	if p == nil {
		return nil
	}
	return p.spans
}

// handleMetrics writes the registry's families, then every source's. A
// scrape takes the idle storage and puts it back after writing, so
// concurrent scrapes never share a buffer and a steady-state scrape
// allocates nothing for its sources.
func (p *Plane) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	p.mu.Lock()
	s := p.idle
	p.idle = nil
	p.mu.Unlock()
	if s == nil {
		s = new(scrape)
	}
	p.samples.Inc()
	s.b = s.b[:0]
	p.Registry.appendTo(&s.expo)
	p.writeSources(s)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(s.b)
	p.mu.Lock()
	p.idle = s
	p.mu.Unlock()
}

func (p *Plane) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "ok uptime=%s\n", time.Since(p.start).Round(time.Second))
}

// handleTablez renders every registered node's live pub/sub tables as
// aligned text columns — the instructor-station view of who publishes what
// to whom, and which channels are shedding.
func (p *Plane) handleTablez(w http.ResponseWriter, _ *http.Request) {
	p.mu.Lock()
	nodes := append([]node(nil), p.nodes...)
	p.mu.Unlock()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].name < nodes[j].name })

	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if len(nodes) == 0 {
		fmt.Fprintln(w, "no nodes registered")
		return
	}
	for _, n := range nodes {
		pubs, subs := n.bb.Tables()
		fmt.Fprintf(w, "== node %s ==\n\npublications\n", n.name)
		// Flush errors are write errors: the client has gone.
		tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
		fmt.Fprintln(tw, "LP\tCLASS\tCHANNELS\tSTALLS")
		for _, row := range pubs {
			fmt.Fprintf(tw, "%s\t%s\t%d\t%d\n", row.LP, row.Class, row.Channels, row.Stalls)
		}
		_ = tw.Flush()
		fmt.Fprintf(w, "\nsubscriptions\n")
		fmt.Fprintln(tw, "LP\tCLASS\tPOLICY\tCHANNELS\tFRAMES\tDROPPED\tCONFLATED\tBY-CHANNEL")
		for _, row := range subs {
			var by []string
			for _, ch := range row.ByChannel {
				by = append(by, fmt.Sprintf("ch%d(%s):%d/%d/%d",
					ch.Channel, ch.Peer, ch.Delivered, ch.Dropped, ch.Conflated))
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\t%d\t%d\t%s\n", row.LP, row.Class, row.Policy,
				row.Channels, row.Delivered, row.Dropped, row.Conflated, strings.Join(by, " "))
		}
		_ = tw.Flush()
		fmt.Fprintln(w)
	}
}

// cbStats are the codsim_cb_stat series, one per cod.Stats counter.
var cbStats = [...]struct {
	name  string
	value func(*cod.Stats) int64
}{
	{"broadcasts_sent", func(s *cod.Stats) int64 { return s.BroadcastsSent.Value() }},
	{"channels_up", func(s *cod.Stats) int64 { return s.ChannelsUp.Value() }},
	{"updates_sent", func(s *cod.Stats) int64 { return s.UpdatesSent.Value() }},
	{"reflects_delivered", func(s *cod.Stats) int64 { return s.ReflectsDelivered.Value() }},
	{"mailbox_dropped", func(s *cod.Stats) int64 { return s.MailboxDropped.Value() }},
	{"conflations", func(s *cod.Stats) int64 { return s.Conflations.Value() }},
	{"credit_stalls", func(s *cod.Stats) int64 { return s.CreditStalls.Value() }},
	{"credits_granted", func(s *cod.Stats) int64 { return s.CreditsGranted.Value() }},
	{"links_down", func(s *cod.Stats) int64 { return s.LinksDown.Value() }},
	{"solicits_sent", func(s *cod.Stats) int64 { return s.SolicitsSent.Value() }},
}

// subFamilies are the per-subscription-row families. The sub_* lifetime
// totals survive channel teardown (the per-channel series below vanish
// with their channel), so a post-sweep scrape still sees what a finished
// sweep delivered.
var subFamilies = [...]struct {
	name, help string
	value      func(*cod.TableEntry) uint64
}{
	{"codsim_cb_sub_channels", "established virtual channels per subscription table row",
		func(r *cod.TableEntry) uint64 { return uint64(r.Channels) }},
	{"codsim_cb_sub_frames_total", "reflections delivered into a subscription's mailbox since it subscribed",
		func(r *cod.TableEntry) uint64 { return r.Delivered }},
	{"codsim_cb_sub_dropped_total", "reflections dropped at the subscription's full mailbox since it subscribed",
		func(r *cod.TableEntry) uint64 { return r.Dropped }},
	{"codsim_cb_sub_conflated_total", "reflections coalesced by latest-value conflation since the subscription began",
		func(r *cod.TableEntry) uint64 { return r.Conflated }},
}

// chanFamilies are the per-virtual-channel families.
var chanFamilies = [...]struct {
	name, help string
	value      func(*cod.ChannelTally) uint64
}{
	{"codsim_cb_channel_frames_total", "reflections delivered into a subscription mailbox, per virtual channel",
		func(c *cod.ChannelTally) uint64 { return c.Delivered }},
	{"codsim_cb_channel_dropped_total", "reflections dropped at a full mailbox, per virtual channel",
		func(c *cod.ChannelTally) uint64 { return c.Dropped }},
	{"codsim_cb_channel_conflated_total", "reflections coalesced by latest-value conflation, per virtual channel",
		func(c *cod.ChannelTally) uint64 { return c.Conflated }},
}

// writeSources reads every registered node and dispatch source once and
// writes the codsim_cb_* and codsim_dist_* families from that reading into
// s, in registration order. The readings are cleared afterwards, so the
// plane keeps no table or worker list between scrapes.
func (p *Plane) writeSources(s *scrape) {
	p.mu.Lock()
	s.nodes = append(s.nodes, p.nodes...)
	s.fns = append(s.fns, p.dispatch...)
	p.mu.Unlock()
	for i := range s.nodes {
		n := &s.nodes[i]
		n.st = n.bb.Stats()
		n.pubs, n.subs = n.bb.Tables()
	}
	for _, fn := range s.fns {
		s.disp = append(s.disp, fn())
	}

	s.family("codsim_cb_stat", "backbone cumulative counters, sampled from cod.Stats", kindGauge)
	for _, n := range s.nodes {
		for _, c := range cbStats {
			s.sample(float64(c.value(n.st)), "node", n.name, "stat", c.name)
		}
	}
	s.family("codsim_cb_pub_credit_stalls_total",
		"sends that found a reliable subscriber's credit window exhausted", kindGauge)
	for _, n := range s.nodes {
		for _, row := range n.pubs {
			if row.Stalls > 0 {
				s.sample(float64(row.Stalls), "node", n.name, "lp", row.LP, "class", row.Class)
			}
		}
	}
	for _, f := range subFamilies {
		s.family(f.name, f.help, kindGauge)
		for _, n := range s.nodes {
			for i := range n.subs {
				row := &n.subs[i]
				s.sample(float64(f.value(row)), "node", n.name, "lp", row.LP, "class", row.Class, "policy", row.Policy)
			}
		}
	}
	var chID [10]byte
	for _, f := range chanFamilies {
		s.family(f.name, f.help, kindGauge)
		for _, n := range s.nodes {
			for _, row := range n.subs {
				for i := range row.ByChannel {
					ch := &row.ByChannel[i]
					s.sample(float64(f.value(ch)), "node", n.name, "lp", row.LP, "class", row.Class,
						"peer", ch.Peer, "channel", string(strconv.AppendUint(chID[:0], uint64(ch.Channel), 10)))
				}
			}
		}
	}

	s.family("codsim_dist_jobs",
		"dist dispatch state by role (in_flight, pending, granted, done, attempts, redispatches, grants, slots, busy, finished, results_acked)",
		kindGauge)
	for _, d := range s.disp {
		switch d.Role {
		case "": // zero sample from an unwired source
		case "coordinator":
			s.job(d.Role, "in_flight", d.Pending+d.Granted)
			s.job(d.Role, "pending", d.Pending)
			s.job(d.Role, "granted", d.Granted)
			s.job(d.Role, "done", d.Done)
			s.job(d.Role, "attempts", d.Attempts)
			s.job(d.Role, "redispatches", d.Redispatches)
			s.job(d.Role, "grants", d.Grants)
		default: // worker roles
			s.job(d.Role, "slots", d.Slots)
			s.job(d.Role, "busy", d.Busy)
			s.job(d.Role, "finished", d.Finished)
			s.job(d.Role, "results_acked", d.ResultsAcked)
		}
	}
	s.family("codsim_dist_worker",
		"coordinator's per-worker progress view (done, throughput_jobs_per_sec, busy, slots, since_seen_sec)",
		kindGauge)
	for _, d := range s.disp {
		if d.Role == "" {
			continue
		}
		for _, w := range d.Workers {
			s.sample(float64(w.Done), "worker", w.Name, "stat", "done")
			s.sample(w.Throughput, "worker", w.Name, "stat", "throughput_jobs_per_sec")
			s.sample(float64(w.Busy), "worker", w.Name, "stat", "busy")
			s.sample(float64(w.Slots), "worker", w.Name, "stat", "slots")
			s.sample(w.SinceSeen, "worker", w.Name, "stat", "since_seen_sec")
		}
	}

	clear(s.nodes)
	clear(s.disp)
	s.nodes, s.fns, s.disp = s.nodes[:0], s.fns[:0], s.disp[:0]
}

// job writes one codsim_dist_jobs series.
func (s *scrape) job(role, state string, v int64) {
	s.sample(float64(v), "role", role, "state", state)
}
