package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"codsim/internal/cb"
	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/sim"
	"codsim/internal/trace"
	"codsim/internal/transport"
)

// fedSetupReps is how many times fed_exam boots the federation: the run
// reports the median, which is what keeps a ~20 ms setup_s steady enough to
// gate on. (The dispatch workloads set up three times, cb_stream five.)
const fedSetupReps = 7

// maxTimeScale caps fed_exam's pace.
const maxTimeScale = 16

// fedNodes are the eight computers of the federation (Fig. 11) as
// sim.New names them on the LAN.
var fedNodes = []string{
	"display-pc-1", "display-pc-2", "display-pc-3", sim.NodeSyncServer,
	sim.NodeDashboard, sim.NodeMotion, sim.NodeInstructor, sim.NodeSim,
}

// runFedExam is the paper's system: the eight-computer federation on a
// private in-memory LAN flies the classic licensing exam on autopilot,
// three displays rendering the paper's scene through the swap-lock
// barrier. Open loop: the LPs are wall-clock paced at 60 x TimeScale Hz,
// with TimeScale chosen so the exam's simulated length fills the
// measuring time (4 at the default 26 s — LP tick demand four times
// production, so the LP/backbone share is visible). The displays free-run
// closed-loop through the barrier. Expert autopilot, no jitter: the
// library geometry is tuned to the default site, so -seed is ignored.
func runFedExam(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{layer: make(map[string]float64)}
	spec := scenario.Classic()
	if cfg.quick {
		// Smoke size: the approach leg alone — a quarter of the exam's
		// simulated length through the same federation and checks.
		spec.Name = "classic-approach"
		spec.Phases = spec.Phases[:1]
		spec.Phases[0].Next = scenario.Terminal
	}

	// The headless expert flies the same spec in milliseconds; its
	// simulated length sizes the time scale.
	ref, err := trace.RunContext(ctx, spec, 900)
	if err != nil {
		return nil, fmt.Errorf("reference flight: %w", err)
	}
	simCfg := sim.Config{
		TimeScale: ref.SimTime / cfg.seconds,
		Scenario:  &spec,
		Autopilot: true,
		AutoStart: true,
	}
	// Beyond this pace the LPs drop ticks and the autopilots fly visibly
	// worse; only -quick's short measuring times ever ask for more.
	simCfg.TimeScale = min(simCfg.TimeScale, maxTimeScale)

	var (
		cluster *sim.Cluster
		lan     *transport.MemLAN
	)
	for rep := 0; rep < fedSetupReps; rep++ {
		if cluster != nil {
			cluster.Stop()
		}
		id := tr.begin(tr.rootID(), "boot", "sim")
		began := time.Now()
		lan = transport.NewMemLAN()
		simCfg.LAN = lan
		if cluster, err = sim.New(simCfg); err != nil {
			return nil, fmt.Errorf("boot: %w", err)
		}
		if err := cluster.Start(); err != nil {
			cluster.Stop()
			return nil, fmt.Errorf("start: %w", err)
		}
		out.setup = append(out.setup, time.Since(began).Seconds())
		tr.end(id)
	}
	defer cluster.Stop()

	var probe *stateProbe
	if tr != nil {
		if probe, err = startStateProbe(ctx, lan); err != nil {
			return nil, err
		}
		defer probe.stop()
	}

	phase := tr.begin(tr.rootID(), "exam", "phase")
	op := tr.begin(phase, "exam", "sim")
	before := takeUsage()
	state, waitErr := cluster.WaitExamContext(ctx, cfg.share(3)+30*time.Second)
	out.timed = takeUsage().since(before)
	tr.end(op)
	tr.end(phase)

	sum := cluster.Summary()
	stats := sumStats(cluster)
	if probe != nil {
		probe.stop()
	}
	stopID := tr.begin(tr.rootID(), "stop", "sim")
	stopBegan := time.Now()
	clusterErr := cluster.Err()
	cluster.Stop()
	stopDur := time.Since(stopBegan)
	tr.end(stopID)

	out.ops = 1
	switch {
	case waitErr != nil:
		out.fail("exam: %v", waitErr)
	case state.Phase != fom.PhaseComplete:
		out.fail("exam ended %v (score %.1f): %s", state.Phase, state.Score, state.Message)
	case sum.Evicted != 0:
		out.fail("exam evicted %d display(s)", sum.Evicted)
	case clusterErr != nil:
		out.fail("exam: cluster error: %v", clusterErr)
	case sum.ServerSwaps == 0:
		out.fail("exam: no frame was ever swapped")
	}

	wall := out.timed.wall.Seconds()
	out.primary = float64(sum.ServerSwaps) / wall
	out.secondary = 60 * state.Elapsed / wall
	out.cpuOps = sum.ServerSwaps

	if tr != nil {
		l := out.layer
		l["sim.boot_ms"] = median(out.setup) * 1e3
		l["sim.stop_ms"] = stopDur.Seconds() * 1e3
		l["sim.allocs_per_sim_s"] = float64(out.timed.mallocs) / state.Elapsed
		l["displaysync.swaps"] = float64(sum.ServerSwaps)
		l["displaysync.evicted"] = float64(sum.Evicted)
		stats.fill(l)
		l["cb.updates_per_sim_s"] = stats.updates / state.Elapsed
		l["cb.reflects_per_sim_s"] = stats.reflects / state.Elapsed
		arrivals, gaps := probe.result()
		l["sim.state_rate_ratio"] = float64(arrivals) / (60 * simCfg.TimeScale * wall)
		l["sim.state_gap_p99_ms"] = quantileSorted(sorted(gaps), 0.99)
	}
	return out, nil
}

// cbTotals are backbone counters summed over every node of a workload.
type cbTotals struct {
	updates, reflects, conflations, dropped     float64
	creditStalls, creditsGranted, linksDown, up float64
	establishSum                                float64
	establishN                                  int64
}

func (t *cbTotals) add(s *cb.Stats) {
	t.updates += float64(s.UpdatesSent.Value())
	t.reflects += float64(s.ReflectsDelivered.Value())
	t.conflations += float64(s.Conflations.Value())
	t.dropped += float64(s.MailboxDropped.Value())
	t.creditStalls += float64(s.CreditStalls.Value())
	t.creditsGranted += float64(s.CreditsGranted.Value())
	t.linksDown += float64(s.LinksDown.Value())
	t.up += float64(s.ChannelsUp.Value())
	t.establishSum += s.EstablishLatency.Sum()
	t.establishN += s.EstablishLatency.Count()
}

// fill writes the cb counter metrics.
func (t *cbTotals) fill(l map[string]float64) {
	l["cb.updates"] = t.updates
	l["cb.reflects"] = t.reflects
	l["cb.conflations"] = t.conflations
	l["cb.mailbox_dropped"] = t.dropped
	l["cb.credit_stalls"] = t.creditStalls
	l["cb.credits_granted"] = t.creditsGranted
	l["cb.links_down"] = t.linksDown
	l["cb.channels_up"] = t.up
	l["cb.establish_ms"] = perOp(t.establishSum*1e3, t.establishN)
}

func sumStats(cluster *sim.Cluster) *cbTotals {
	t := &cbTotals{}
	for _, n := range fedNodes {
		if b := cluster.Backbone(n); b != nil {
			t.add(b.Stats())
		}
	}
	return t
}

// stateProbe is a ninth computer on the federation's LAN that subscribes
// CraneState the way a display does (latest value) and notes when each
// state arrives: arrivals against the 60 x TimeScale Hz the dynamics LP
// is paced at, and the wall gap between arrivals.
type stateProbe struct {
	bb   *cb.Backbone
	sub  *cb.Subscription
	quit context.CancelFunc
	done chan struct{}
	once sync.Once

	arrivals int64
	gapsMS   []float64
}

func startStateProbe(ctx context.Context, lan transport.LAN) (*stateProbe, error) {
	bb, err := cb.New(lan, "probe-pc", cb.Config{})
	if err != nil {
		return nil, fmt.Errorf("state probe: %w", err)
	}
	sub, err := bb.SubscribeObjectClass("probe", fom.ClassCraneState, cb.WithQueue(128), cb.WithLatestValue())
	if err != nil {
		_ = bb.Close()
		return nil, fmt.Errorf("state probe: %w", err)
	}
	pctx, quit := context.WithCancel(ctx)
	p := &stateProbe{bb: bb, sub: sub, quit: quit, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		var last time.Time
		for {
			if _, err := sub.NextContext(pctx); err != nil {
				return
			}
			now := time.Now()
			if p.arrivals > 0 {
				p.gapsMS = append(p.gapsMS, now.Sub(last).Seconds()*1e3)
			}
			p.arrivals++
			last = now
		}
	}()
	return p, nil
}

// stop ends the probe and waits for its goroutine; safe to call twice.
func (p *stateProbe) stop() {
	p.once.Do(func() {
		p.quit()
		<-p.done
		_ = p.bb.Close()
	})
}

// result is valid after stop.
func (p *stateProbe) result() (arrivals int64, gapsMS []float64) {
	return p.arrivals, p.gapsMS
}
