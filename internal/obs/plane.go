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

	// Coordinator state: jobs currently pending announce or granted
	// (InFlight = Pending + Granted), finished jobs, attempts dispatched,
	// re-dispatches of lost grants, and announce publications — a healthy
	// sweep says each attempt about once, so Announces far above Attempts
	// is an announce storm.
	Pending      int64
	Granted      int64
	Done         int64
	Attempts     int64
	Redispatches int64
	Announces    int64

	// Worker state: slot occupancy, the local job ledger, and how many
	// announces are held for the next free slot.
	Slots        int64
	Busy         int64
	Claimed      int64
	Backlog      int64
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

// nodeSource is one registered backbone with its metric label.
type nodeSource struct {
	name string
	bb   Backbone
}

// Plane is a process's telemetry plane: the metric registry, the span
// recorder, the structured logger, and the opt-in HTTP face over them:
//
//	/metrics       Prometheus text exposition of the registry
//	/healthz       liveness: 200 "ok" with uptime
//	/debug/tablez  live Backbone.Tables pub/sub tables of registered nodes
//	/debug/pprof/  the standard runtime profiles
//
// Registered sources are read only when /metrics is scraped: one pass
// over every node and dispatch source, then the render. So a scrape sees
// the state at scrape time — per-channel tallies are dropped when a
// virtual channel tears down, so anything older could miss a short-lived
// channel entirely. Nothing listens unless Start is called. A nil *Plane
// is a valid disabled plane: AddNode, AddDispatch, Close, Log and
// SpanSink are safe no-ops on it.
type Plane struct {
	Registry *Registry

	spans *Spans
	log   *slog.Logger
	start time.Time
	mux   *http.ServeMux

	mu       sync.Mutex
	nodes    []nodeSource
	dispatch []func() DispatchSample
	srv      *http.Server

	// sampleMu serializes scrape passes and owns everything below it: the
	// source snapshots reused across passes and the resolved-gauge caches.
	// GaugeVec.With allocates (variadic labels + rendered key), so a pass
	// that resolved every child each time cost >100 allocs; caching the
	// children makes the steady-state pass allocation-free.
	sampleMu    sync.Mutex
	nodeScratch []nodeSource
	dispScratch []func() DispatchSample
	nodeGauges  map[string]*nodeGauges
	dispGauges  map[dispKey]*Gauge
	workerCache map[string]*workerGauges

	// Pre-registered families; children resolve per label set on sample.
	cbCounters  *GaugeVec
	chFrames    *GaugeVec
	chDropped   *GaugeVec
	chConflated *GaugeVec
	pubStalls   *GaugeVec
	subRows     *GaugeVec
	subFrames   *GaugeVec
	subDropped  *GaugeVec
	subConfl    *GaugeVec
	dispatchG   *GaugeVec
	workerG     *GaugeVec
	samples     *Counter
}

// NewPlane builds a plane around a fresh registry. role tags log lines;
// logW receives them (typically os.Stderr).
func NewPlane(role string, logW io.Writer) *Plane {
	reg := NewRegistry()
	p := &Plane{
		Registry:    reg,
		spans:       NewSpans(reg),
		log:         NewLogger(logW, role),
		start:       time.Now(),
		nodeGauges:  make(map[string]*nodeGauges),
		dispGauges:  make(map[dispKey]*Gauge),
		workerCache: make(map[string]*workerGauges),
		cbCounters: reg.GaugeVec("codsim_cb_stat",
			"backbone cumulative counters, sampled from cod.Stats", "node", "stat"),
		chFrames: reg.GaugeVec("codsim_cb_channel_frames_total",
			"reflections delivered into a subscription mailbox, per virtual channel",
			"node", "lp", "class", "peer", "channel"),
		chDropped: reg.GaugeVec("codsim_cb_channel_dropped_total",
			"reflections dropped at a full mailbox, per virtual channel",
			"node", "lp", "class", "peer", "channel"),
		chConflated: reg.GaugeVec("codsim_cb_channel_conflated_total",
			"reflections coalesced by latest-value conflation, per virtual channel",
			"node", "lp", "class", "peer", "channel"),
		pubStalls: reg.GaugeVec("codsim_cb_pub_credit_stalls_total",
			"sends that found a reliable subscriber's credit window exhausted",
			"node", "lp", "class"),
		subRows: reg.GaugeVec("codsim_cb_sub_channels",
			"established virtual channels per subscription table row",
			"node", "lp", "class", "policy"),
		// The sub_* lifetime totals survive channel teardown (the
		// per-channel series above vanish with their channel), so a
		// post-sweep scrape still sees what a finished sweep delivered.
		subFrames: reg.GaugeVec("codsim_cb_sub_frames_total",
			"reflections delivered into a subscription's mailbox since it subscribed",
			"node", "lp", "class", "policy"),
		subDropped: reg.GaugeVec("codsim_cb_sub_dropped_total",
			"reflections dropped at the subscription's full mailbox since it subscribed",
			"node", "lp", "class", "policy"),
		subConfl: reg.GaugeVec("codsim_cb_sub_conflated_total",
			"reflections coalesced by latest-value conflation since the subscription began",
			"node", "lp", "class", "policy"),
		dispatchG: reg.GaugeVec("codsim_dist_jobs",
			"dist dispatch state by role (in_flight, pending, granted, done, attempts, redispatches, announces, slots, busy, claimed, backlog, finished, results_acked)",
			"role", "state"),
		workerG: reg.GaugeVec("codsim_dist_worker",
			"coordinator's per-worker progress view (done, throughput_jobs_per_sec, busy, slots, since_seen_sec)",
			"worker", "stat"),
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
	p.nodes = append(p.nodes, nodeSource{name: name, bb: bb})
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

func (p *Plane) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	p.sample()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = p.Registry.WritePrometheus(w)
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
	nodes := append([]nodeSource(nil), p.nodes...)
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

// cbStatNames orders the codsim_cb_stat children; nodeGauges.stats is
// resolved in the same order.
var cbStatNames = [...]string{
	"broadcasts_sent", "channels_up", "updates_sent", "reflects_delivered",
	"mailbox_dropped", "conflations", "credit_stalls", "credits_granted",
	"links_down", "solicits_sent",
}

// Cache key and child-group types for the resolved-gauge caches. Struct
// map keys compare without allocating, so a steady-state lookup is free.
type (
	pubKey  struct{ lp, class string }
	subKey  struct{ lp, class, policy string }
	chanKey struct {
		lp, class, peer string
		ch              uint32
	}
	dispKey struct{ role, state string }
)

type subGauges struct{ rows, frames, dropped, confl *Gauge }

type chanGauges struct{ frames, dropped, confl *Gauge }

type workerGauges struct{ done, tput, busy, slots, since *Gauge }

// nodeGauges holds one node's resolved children, built lazily as label
// sets first appear and reused on every later pass.
type nodeGauges struct {
	stats     [len(cbStatNames)]*Gauge
	pubStalls map[pubKey]*Gauge
	subs      map[subKey]*subGauges
	chans     map[chanKey]*chanGauges
}

// sample runs the scrape pass /metrics renders after: every registered
// backbone's stats and tables, then every dispatch source. Concurrent
// scrapes serialize on sampleMu; gauge writes are atomic.
func (p *Plane) sample() {
	p.sampleMu.Lock()
	defer p.sampleMu.Unlock()

	p.mu.Lock()
	p.nodeScratch = append(p.nodeScratch[:0], p.nodes...)
	p.dispScratch = append(p.dispScratch[:0], p.dispatch...)
	p.mu.Unlock()

	for _, n := range p.nodeScratch {
		p.sampleNode(n)
	}
	for _, fn := range p.dispScratch {
		p.sampleDispatch(fn())
	}
	p.samples.Inc()
}

// nodeGaugesFor resolves (once) the per-node child cache.
func (p *Plane) nodeGaugesFor(name string) *nodeGauges {
	g := p.nodeGauges[name]
	if g == nil {
		g = &nodeGauges{
			pubStalls: make(map[pubKey]*Gauge),
			subs:      make(map[subKey]*subGauges),
			chans:     make(map[chanKey]*chanGauges),
		}
		for i, stat := range cbStatNames {
			g.stats[i] = p.cbCounters.With(name, stat)
		}
		p.nodeGauges[name] = g
	}
	return g
}

// sampleNode reads one backbone's counters and channel tallies.
func (p *Plane) sampleNode(n nodeSource) {
	g := p.nodeGaugesFor(n.name)
	st := n.bb.Stats()
	vals := [len(cbStatNames)]int64{
		st.BroadcastsSent.Value(),
		st.ChannelsUp.Value(),
		st.UpdatesSent.Value(),
		st.ReflectsDelivered.Value(),
		st.MailboxDropped.Value(),
		st.Conflations.Value(),
		st.CreditStalls.Value(),
		st.CreditsGranted.Value(),
		st.LinksDown.Value(),
		st.SolicitsSent.Value(),
	}
	for i, v := range vals {
		g.stats[i].Set(float64(v))
	}

	pubs, subs := n.bb.Tables()
	for _, row := range pubs {
		if row.Stalls > 0 {
			k := pubKey{lp: row.LP, class: row.Class}
			ch := g.pubStalls[k]
			if ch == nil {
				ch = p.pubStalls.With(n.name, row.LP, row.Class)
				g.pubStalls[k] = ch
			}
			ch.Set(float64(row.Stalls))
		}
	}
	for _, row := range subs {
		k := subKey{lp: row.LP, class: row.Class, policy: row.Policy}
		sg := g.subs[k]
		if sg == nil {
			sg = &subGauges{
				rows:    p.subRows.With(n.name, row.LP, row.Class, row.Policy),
				frames:  p.subFrames.With(n.name, row.LP, row.Class, row.Policy),
				dropped: p.subDropped.With(n.name, row.LP, row.Class, row.Policy),
				confl:   p.subConfl.With(n.name, row.LP, row.Class, row.Policy),
			}
			g.subs[k] = sg
		}
		sg.rows.Set(float64(row.Channels))
		sg.frames.Set(float64(row.Delivered))
		sg.dropped.Set(float64(row.Dropped))
		sg.confl.Set(float64(row.Conflated))
		for _, ch := range row.ByChannel {
			ck := chanKey{lp: row.LP, class: row.Class, peer: ch.Peer, ch: ch.Channel}
			cg := g.chans[ck]
			if cg == nil {
				chID := strconv.FormatUint(uint64(ch.Channel), 10)
				cg = &chanGauges{
					frames:  p.chFrames.With(n.name, row.LP, row.Class, ch.Peer, chID),
					dropped: p.chDropped.With(n.name, row.LP, row.Class, ch.Peer, chID),
					confl:   p.chConflated.With(n.name, row.LP, row.Class, ch.Peer, chID),
				}
				g.chans[ck] = cg
			}
			cg.frames.Set(float64(ch.Delivered))
			cg.dropped.Set(float64(ch.Dropped))
			cg.confl.Set(float64(ch.Conflated))
		}
	}
}

// dispGauge resolves (once) one codsim_dist_jobs child.
func (p *Plane) dispGauge(role, state string) *Gauge {
	k := dispKey{role: role, state: state}
	g := p.dispGauges[k]
	if g == nil {
		g = p.dispatchG.With(role, state)
		p.dispGauges[k] = g
	}
	return g
}

// sampleDispatch folds one dispatch-state reading into the gauges.
func (p *Plane) sampleDispatch(d DispatchSample) {
	role := d.Role
	if role == "" {
		return // zero sample from an unwired source
	}
	switch role {
	case "coordinator":
		p.dispGauge(role, "in_flight").Set(float64(d.Pending + d.Granted))
		p.dispGauge(role, "pending").Set(float64(d.Pending))
		p.dispGauge(role, "granted").Set(float64(d.Granted))
		p.dispGauge(role, "done").Set(float64(d.Done))
		p.dispGauge(role, "attempts").Set(float64(d.Attempts))
		p.dispGauge(role, "redispatches").Set(float64(d.Redispatches))
		p.dispGauge(role, "announces").Set(float64(d.Announces))
	default: // worker roles
		p.dispGauge(role, "slots").Set(float64(d.Slots))
		p.dispGauge(role, "busy").Set(float64(d.Busy))
		p.dispGauge(role, "claimed").Set(float64(d.Claimed))
		p.dispGauge(role, "backlog").Set(float64(d.Backlog))
		p.dispGauge(role, "finished").Set(float64(d.Finished))
		p.dispGauge(role, "results_acked").Set(float64(d.ResultsAcked))
	}
	for _, w := range d.Workers {
		wg := p.workerCache[w.Name]
		if wg == nil {
			wg = &workerGauges{
				done:  p.workerG.With(w.Name, "done"),
				tput:  p.workerG.With(w.Name, "throughput_jobs_per_sec"),
				busy:  p.workerG.With(w.Name, "busy"),
				slots: p.workerG.With(w.Name, "slots"),
				since: p.workerG.With(w.Name, "since_seen_sec"),
			}
			p.workerCache[w.Name] = wg
		}
		wg.done.Set(float64(w.Done))
		wg.tput.Set(w.Throughput)
		wg.busy.Set(float64(w.Busy))
		wg.slots.Set(float64(w.Slots))
		wg.since.Set(w.SinceSeen)
	}
}
