package obs

import (
	"strconv"
	"sync"
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
// and the Sampler turns them into codsim_dist_* series; the struct is
// plain data so obs never has to import dist.
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

// Sampler periodically scrapes registered backbones and dispatch sources
// into registry gauges. Construct with NewSampler, register sources, then
// Start it (or call SampleOnce from a test). All methods are safe for
// concurrent use.
type Sampler struct {
	reg    *Registry
	period time.Duration

	mu       sync.Mutex
	nodes    []nodeSource
	dispatch []func() DispatchSample

	// scrapeMu serializes scrape passes and owns everything below it: the
	// source snapshots reused across ticks and the resolved-gauge caches.
	// GaugeVec.With allocates (variadic labels + rendered key), so a scrape
	// that resolved every child per tick cost >100 allocs; caching the
	// children makes the steady-state pass allocation-free.
	scrapeMu    sync.Mutex
	nodeScratch []nodeSource
	dispScratch []func() DispatchSample
	nodeGauges  map[string]*nodeGauges
	dispGauges  map[dispKey]*Gauge
	workerCache map[string]*workerGauges

	startOnce sync.Once
	stopOnce  sync.Once
	done      chan struct{}
	stopped   chan struct{}

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

// DefaultSamplePeriod is how often Start scrapes when the period is 0.
const DefaultSamplePeriod = time.Second

// NewSampler returns a sampler feeding reg every period (0 = the 1 s
// default).
func NewSampler(reg *Registry, period time.Duration) *Sampler {
	if period <= 0 {
		period = DefaultSamplePeriod
	}
	return &Sampler{
		reg:         reg,
		period:      period,
		done:        make(chan struct{}),
		stopped:     make(chan struct{}),
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
			"sampler scrape passes completed"),
	}
}

// AddNode registers a backbone to scrape under the given node label.
func (s *Sampler) AddNode(name string, bb Backbone) {
	s.mu.Lock()
	s.nodes = append(s.nodes, nodeSource{name: name, bb: bb})
	s.mu.Unlock()
}

// AddDispatch registers a dispatch-state source (Coordinator.Sample or
// Worker.Sample from dist, or any closure yielding a DispatchSample).
func (s *Sampler) AddDispatch(fn func() DispatchSample) {
	s.mu.Lock()
	s.dispatch = append(s.dispatch, fn)
	s.mu.Unlock()
}

// Start launches the background scrape loop. Stop ends it; Start after
// Stop is a no-op.
func (s *Sampler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.stopped)
			tick := time.NewTicker(s.period)
			defer tick.Stop()
			for {
				select {
				case <-s.done:
					return
				case <-tick.C:
					s.SampleOnce()
				}
			}
		}()
	})
}

// Stop ends the scrape loop and waits for the in-flight pass to finish.
// A sampler that was never started stops cleanly too.
func (s *Sampler) Stop() {
	s.stopOnce.Do(func() {
		close(s.done)
		s.startOnce.Do(func() { close(s.stopped) }) // never started: release waiters
		<-s.stopped
	})
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
// sets first appear and reused on every later tick.
type nodeGauges struct {
	stats     [len(cbStatNames)]*Gauge
	pubStalls map[pubKey]*Gauge
	subs      map[subKey]*subGauges
	chans     map[chanKey]*chanGauges
}

// SampleOnce runs one scrape pass: every registered backbone's stats and
// tables, then every dispatch source. Safe to call concurrently with the
// background loop (passes serialize on scrapeMu; gauge writes are atomic,
// last writer wins).
func (s *Sampler) SampleOnce() {
	s.scrapeMu.Lock()
	defer s.scrapeMu.Unlock()

	s.mu.Lock()
	s.nodeScratch = append(s.nodeScratch[:0], s.nodes...)
	s.dispScratch = append(s.dispScratch[:0], s.dispatch...)
	s.mu.Unlock()

	for _, n := range s.nodeScratch {
		s.sampleNode(n)
	}
	for _, fn := range s.dispScratch {
		s.sampleDispatch(fn())
	}
	s.samples.Inc()
}

// nodeGaugesFor resolves (once) the per-node child cache.
func (s *Sampler) nodeGaugesFor(name string) *nodeGauges {
	g := s.nodeGauges[name]
	if g == nil {
		g = &nodeGauges{
			pubStalls: make(map[pubKey]*Gauge),
			subs:      make(map[subKey]*subGauges),
			chans:     make(map[chanKey]*chanGauges),
		}
		for i, stat := range cbStatNames {
			g.stats[i] = s.cbCounters.With(name, stat)
		}
		s.nodeGauges[name] = g
	}
	return g
}

// sampleNode scrapes one backbone's counters and channel tallies.
func (s *Sampler) sampleNode(n nodeSource) {
	g := s.nodeGaugesFor(n.name)
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
				ch = s.pubStalls.With(n.name, row.LP, row.Class)
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
				rows:    s.subRows.With(n.name, row.LP, row.Class, row.Policy),
				frames:  s.subFrames.With(n.name, row.LP, row.Class, row.Policy),
				dropped: s.subDropped.With(n.name, row.LP, row.Class, row.Policy),
				confl:   s.subConfl.With(n.name, row.LP, row.Class, row.Policy),
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
					frames:  s.chFrames.With(n.name, row.LP, row.Class, ch.Peer, chID),
					dropped: s.chDropped.With(n.name, row.LP, row.Class, ch.Peer, chID),
					confl:   s.chConflated.With(n.name, row.LP, row.Class, ch.Peer, chID),
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
func (s *Sampler) dispGauge(role, state string) *Gauge {
	k := dispKey{role: role, state: state}
	g := s.dispGauges[k]
	if g == nil {
		g = s.dispatchG.With(role, state)
		s.dispGauges[k] = g
	}
	return g
}

// sampleDispatch folds one dispatch-state scrape into the gauges.
func (s *Sampler) sampleDispatch(d DispatchSample) {
	role := d.Role
	if role == "" {
		return // zero sample from an unwired source
	}
	switch role {
	case "coordinator":
		s.dispGauge(role, "in_flight").Set(float64(d.Pending + d.Granted))
		s.dispGauge(role, "pending").Set(float64(d.Pending))
		s.dispGauge(role, "granted").Set(float64(d.Granted))
		s.dispGauge(role, "done").Set(float64(d.Done))
		s.dispGauge(role, "attempts").Set(float64(d.Attempts))
		s.dispGauge(role, "redispatches").Set(float64(d.Redispatches))
		s.dispGauge(role, "announces").Set(float64(d.Announces))
	default: // worker roles
		s.dispGauge(role, "slots").Set(float64(d.Slots))
		s.dispGauge(role, "busy").Set(float64(d.Busy))
		s.dispGauge(role, "claimed").Set(float64(d.Claimed))
		s.dispGauge(role, "backlog").Set(float64(d.Backlog))
		s.dispGauge(role, "finished").Set(float64(d.Finished))
		s.dispGauge(role, "results_acked").Set(float64(d.ResultsAcked))
	}
	for _, w := range d.Workers {
		wg := s.workerCache[w.Name]
		if wg == nil {
			wg = &workerGauges{
				done:  s.workerG.With(w.Name, "done"),
				tput:  s.workerG.With(w.Name, "throughput_jobs_per_sec"),
				busy:  s.workerG.With(w.Name, "busy"),
				slots: s.workerG.With(w.Name, "slots"),
				since: s.workerG.With(w.Name, "since_seen_sec"),
			}
			s.workerCache[w.Name] = wg
		}
		wg.done.Set(float64(w.Done))
		wg.tput.Set(w.Throughput)
		wg.busy.Set(float64(w.Busy))
		wg.slots.Set(float64(w.Slots))
		wg.since.Set(w.SinceSeen)
	}
}
