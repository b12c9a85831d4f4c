// Command codbatch runs batches of training scenarios at cluster scale —
// locally or sharded across worker hosts — and reports scores, pass rates
// and percentile analytics: one full COD federation (or headless coupling)
// per scenario run. Every sweep streams its jobs through one dist
// coordinator; only where the coordinator's workers live differs.
//
// Local batch (the default): one in-process worker serves -parallel slots
// on the same dist path, over a LAN that is just memory.
//
//	codbatch [-scenarios all|name,...] [-specs dir] [-repeat N] [-headless]
//	         [-parallel N] [-timescale 15] [-timeout 3m] [-strict]
//	         [-skill novice] [-jitter 0.3]
//	         [-out results.jsonl] [-compare old.jsonl]
//
// Distributed batch: start one worker per host, then one coordinator that
// shards the same work list over them via the dist protocol (UDPLAN
// discovery + TCP virtual channels on a shared segment):
//
//	host1$ codbatch -serve -lan 192.168.0.10:47700 -name host1 -headless
//	host2$ codbatch -serve -lan 192.168.0.10:47700 -name host2 -headless
//	any$   codbatch -coordinator host1,host2 -lan 192.168.0.10:47700 \
//	           -repeat 5 -headless -out results.jsonl
//
// Procedural campaign: -campaign seed:count generates, certifies and
// dispatches count scenarios instead of the library — locally or via
// -coordinator. The certification stream prefetches ahead of dispatch;
// -campaign-cache file persists dry-run verdicts so reruns fly none;
// -campaign-wind/-night/-two/-tandem, -campaign-mass lo:hi,
// -campaign-gates lo:hi and -campaign-bars n tune the generator and are
// folded into the campaign key:
//
//	codbatch -campaign 42:1000 -headless -strict -campaign-cache verdicts.jsonl
//	codbatch -campaign 42:50 -list
//
// -out persists one JSON-lines record per run; -compare old.jsonl diffs
// the fresh results against a previous sweep and exits nonzero on
// regressions (lower pass rate, or p50 score drops). -specs dir loads
// scenario JSON files instead of the built-in library. -cpuprofile and
// -memprofile write pprof profiles on clean exit.
//
// -obs addr serves the live telemetry plane in any mode (/metrics
// Prometheus exposition, /healthz, /debug/tablez backbone tables,
// /debug/pprof), switches the dist layer to structured slog lines on
// stderr, and records per-job trace-span phase latencies; ":0" picks a
// free port and prints it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"codsim/cod"
	"codsim/internal/dist"
	"codsim/internal/obs"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/sim"
	"codsim/internal/trace"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "codbatch:", err)
		os.Exit(1)
	}
}

func run() error {
	defaultParams := gen.DefaultParams()
	var (
		names     = flag.String("scenarios", "all", `comma-separated scenario names, or "all"`)
		specsDir  = flag.String("specs", "", "load scenario JSON files from this directory instead of the built-in library")
		parallel  = flag.Int("parallel", 0, "runs at once on this host (0 = every core headless, a quarter for federations)")
		timescale = flag.Float64("timescale", 15, "simulation speed multiplier per federation")
		repeat    = flag.Int("repeat", 1, "run the selection N times (load/regression sweeps)")
		timeout   = flag.Duration("timeout", 3*time.Minute, "per-run cap: wall clock for federations, simulation seconds for -headless (0 = scenario default)")
		headless  = flag.Bool("headless", false, "run without the federation (direct coupling)")
		list      = flag.Bool("list", false, "list the scenario selection and exit")
		strict    = flag.Bool("strict", false, "exit nonzero unless every run passes")
		displays  = flag.Int("displays", 3, "surround-view displays per federation")
		polygons  = flag.Int("polygons", 400, "scene polygon budget per display")
		outPath   = flag.String("out", "", "persist per-run records to this JSON-lines file")
		compare   = flag.String("compare", "", "diff results against this JSON-lines file; regressions exit nonzero")
		serve     = flag.Bool("serve", false, "worker mode: serve batch jobs to a coordinator on the segment")
		coordAt   = flag.String("coordinator", "", "coordinator mode: comma-separated worker names to shard over")
		lanAddr   = flag.String("lan", "127.0.0.1:47700", "UDPLAN segment (host:basePort) for -serve/-coordinator")
		name      = flag.String("name", "", "worker name on the segment (default worker-<pid>)")
		campaign  = flag.String("campaign", "", "procedural campaign seed:count — generate, oracle-certify and dispatch that many scenarios instead of a library selection")
		campCache = flag.String("campaign-cache", "", "persistent oracle-verdict cache (append-only JSONL): re-running a campaign replays cached verdicts instead of re-flying dry-runs")
		campWind  = flag.Float64("campaign-wind", defaultParams.WindProb, "campaign knob: probability of a wind regime (0..1)")
		campNight = flag.Float64("campaign-night", defaultParams.NightProb, "campaign knob: probability of low visibility (0..1)")
		campTwo   = flag.Float64("campaign-two", defaultParams.TwoCraneProb, "campaign knob: archetype weight — probability of a two-crane candidate (0..1)")
		campTand  = flag.Float64("campaign-tandem", defaultParams.TandemProb, "campaign knob: archetype weight — probability a two-crane candidate is a shared tandem lift rather than twin yards (0..1)")
		campMass  = flag.String("campaign-mass", "", "campaign knob: single-hook cargo mass band lo:hi in kg (default 1000:2600)")
		campGates = flag.String("campaign-gates", "", "campaign knob: traverse gate count band lo:hi (default 3:6)")
		campBars  = flag.Int("campaign-bars", defaultParams.MaxBars, "campaign knob: max obstruction bars along a carry")
		cpuProf   = flag.String("cpuprofile", "", "write a pprof CPU profile to this file on clean exit")
		memProf   = flag.String("memprofile", "", "write a pprof heap profile to this file on clean exit")
		skillName = flag.String("skill", "", `autopilot skill preset (expert, intermediate, novice; "" = expert)`)
		jitter    = flag.Float64("jitter", 0, "per-run skill jitter spread (0..1): each run scales the preset's lag/overshoot/slack by a factor in [1-j, 1+j] drawn from its job seed")
		trendDir  = flag.String("trend", "", "report pass-rate/p50-score trends across every *.jsonl sweep in this directory and exit")
		obsAddr   = flag.String("obs", "", "serve the telemetry plane (/metrics, /healthz, /debug/tablez, /debug/pprof) on this address (e.g. :9090, :0 = ephemeral); empty = off")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer writeHeapProfile(*memProf)
	}

	if *trendDir != "" {
		sweeps, err := dist.LoadSweepDir(*trendDir)
		if err != nil {
			return err
		}
		dist.WriteTrend(os.Stdout, sweeps)
		return nil
	}

	skill, err := trace.SkillByName(*skillName)
	if err != nil {
		return err
	}
	if *jitter < 0 || *jitter > 1 {
		return fmt.Errorf("-jitter %v out of range [0, 1]", *jitter)
	}
	skill.Jitter = *jitter

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	role := "local"
	switch {
	case *serve:
		role = "worker"
	case *coordAt != "":
		role = "coordinator"
	}
	plane, err := startObs(*obsAddr, role)
	if err != nil {
		return err
	}
	defer plane.Close()

	// In headless mode Timeout is a simulation-time cap, where the 3 m
	// wall-clock default would cut scenarios off mid-course; only an
	// explicit -timeout carries over.
	if *headless && !flagSet("timeout") {
		*timeout = 0
	}

	batch := sim.BatchConfig{
		Base: sim.Config{
			TimeScale: *timescale,
			Displays:  *displays,
			Width:     96,
			Height:    72,
			Polygons:  *polygons,
		},
		Timeout:  *timeout,
		Headless: *headless,
		Skill:    skill,
		Log:      plane.Log(),
	}
	slots := *parallel
	if slots <= 0 {
		slots = sim.DefaultParallel(*headless)
	}

	var (
		cr        *campaignRun
		selection []scenario.Spec
	)
	if *campaign != "" {
		seed, count, err := parseCampaign(*campaign)
		if err != nil {
			return err
		}
		switch {
		case *specsDir != "" || flagSet("scenarios") || flagSet("repeat"):
			return errors.New("-campaign generates its own work list; it conflicts with -specs, -scenarios and -repeat")
		case *serve:
			return errors.New("-campaign is a coordinator/local mode; workers just -serve")
		}
		params, err := campaignParams(defaultParams,
			*campWind, *campNight, *campTwo, *campTand, *campMass, *campGates, *campBars)
		if err != nil {
			return err
		}
		cr = &campaignRun{seed: seed, count: count, params: params, cachePath: *campCache}
		if *list {
			return listCampaign(*cr)
		}
	} else {
		if selection, err = selectSpecs(*specsDir, *names); err != nil {
			return err
		}
		if *list {
			for _, s := range selection {
				fmt.Printf("%-18s %-34s %d phases%s\n", s.Name, s.Title, len(s.Phases), describe(s))
			}
			return nil
		}
	}

	switch {
	case *serve && *coordAt != "":
		return errors.New("-serve and -coordinator are mutually exclusive")
	case *serve:
		return runWorker(ctx, plane, *lanAddr, *name, slots, batch)
	}

	coord, width, closeCoord, err := openCoordinator(ctx, plane, *lanAddr, *coordAt, slots, batch)
	if err != nil {
		return err
	}
	defer closeCoord()

	var (
		src     dist.JobSource
		total   int
		summary func(wall time.Duration)
	)
	if cr != nil {
		stream, cleanup, err := newCampaignStream(plane, *cr, width, false)
		if err != nil {
			return err
		}
		defer cleanup()
		key := gen.Key(cr.seed, cr.count, cr.params)
		fmt.Printf("campaign %s: dispatching %d certified scenarios (window-streamed, oracle-certified)\n", key, cr.count)
		src, total = &campaignSource{stream: stream, count: cr.count}, cr.count
		summary = func(wall time.Duration) {
			campaignSummary(key, stream.Stats(), wall)
			if *outPath == "" {
				fmt.Printf("hint: -out %s.jsonl persists this sweep for -compare/-trend\n", key)
			}
		}
	} else {
		jobs := dist.JobsFor(selection, *repeat)
		fmt.Printf("dispatching %d jobs (%d scenarios × %d)\n", len(jobs), len(selection), max(1, *repeat))
		src, total = dist.SliceJobs(jobs), len(jobs)
		summary = func(wall time.Duration) {
			fmt.Printf("completed %d jobs in %.1fs wall\n", total, wall.Seconds())
		}
	}
	start := time.Now()
	recs, err := coord.RunStream(ctx, src)
	if err != nil {
		// Persist whatever completed before reporting the failure.
		if *outPath != "" && len(recs) > 0 {
			_ = dist.SaveRecords(*outPath, recs)
		}
		return fmt.Errorf("sweep aborted with %d/%d records: %w", len(recs), total, err)
	}
	summary(time.Since(start))
	return finishSweep(recs, *outPath, *compare, *strict)
}

// campaignParams applies the -campaign-* knobs over the default sampling
// space. Every knob participates in the campaign key's params hash, so
// two campaigns with different knob settings never collide on a sweep
// label or a cache signature.
func campaignParams(p gen.Params, wind, night, two, tandem float64,
	mass, gates string, bars int) (gen.Params, error) {
	for _, prob := range []struct {
		name string
		v    float64
	}{{"-campaign-wind", wind}, {"-campaign-night", night}, {"-campaign-two", two}, {"-campaign-tandem", tandem}} {
		if prob.v < 0 || prob.v > 1 {
			return p, fmt.Errorf("%s %v out of range [0, 1]", prob.name, prob.v)
		}
	}
	p.WindProb, p.NightProb, p.TwoCraneProb, p.TandemProb = wind, night, two, tandem
	if bars < 0 {
		return p, fmt.Errorf("-campaign-bars %d must be >= 0", bars)
	}
	p.MaxBars = bars
	if mass != "" {
		lo, hi, err := parseBand(mass)
		if err != nil || lo <= 0 || hi < lo {
			return p, fmt.Errorf("-campaign-mass wants lo:hi kg with 0 < lo <= hi, got %q", mass)
		}
		p.MinCargoMass, p.MaxCargoMass = lo, hi
		if p.TandemMassCap < hi {
			p.TandemMassCap = hi
		}
	}
	if gates != "" {
		lo, hi, err := parseBand(gates)
		if err != nil || lo < 1 || hi < lo || lo != float64(int(lo)) || hi != float64(int(hi)) {
			return p, fmt.Errorf("-campaign-gates wants integer lo:hi with 1 <= lo <= hi, got %q", gates)
		}
		p.MinGates, p.MaxGates = int(lo), int(hi)
	}
	return p, nil
}

// parseBand splits a "lo:hi" numeric band.
func parseBand(arg string) (lo, hi float64, err error) {
	l, h, ok := strings.Cut(arg, ":")
	if !ok {
		return 0, 0, fmt.Errorf("want lo:hi, got %q", arg)
	}
	if lo, err = strconv.ParseFloat(strings.TrimSpace(l), 64); err != nil {
		return 0, 0, err
	}
	if hi, err = strconv.ParseFloat(strings.TrimSpace(h), 64); err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// writeHeapProfile snapshots the heap into path after a final GC, for
// -memprofile on clean exit.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "codbatch: -memprofile:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "codbatch: -memprofile:", err)
	}
}

// startObs boots the telemetry plane when -obs is set; a nil plane (flag
// unset) is safe everywhere downstream — every method no-ops.
func startObs(addr, role string) (*obs.Plane, error) {
	if addr == "" {
		return nil, nil
	}
	plane := obs.NewPlane(role, os.Stderr)
	bound, err := plane.Start(addr)
	if err != nil {
		return nil, err
	}
	fmt.Printf("obs: telemetry plane on http://%s/metrics\n", bound)
	return plane, nil
}

// runWorker serves this host's slots to whatever coordinator shows up on
// the segment, until interrupted.
func runWorker(ctx context.Context, plane *obs.Plane, lanAddr, name string, slots int, batch sim.BatchConfig) error {
	if name == "" {
		name = fmt.Sprintf("worker-%d", os.Getpid())
	}
	node, err := cod.NewNode(name+"-node", cod.WithUDP(lanAddr))
	if err != nil {
		return err
	}
	defer node.Close()
	w, err := newWorker(plane, node, name, slots, batch)
	if err != nil {
		return err
	}
	defer w.Close()

	mode := "federation"
	if batch.Headless {
		mode = "headless"
	}
	fmt.Printf("worker %s serving %d %s slots on %s (Ctrl-C to stop)\n",
		name, slots, mode, lanAddr)
	if err := w.Run(ctx); !errors.Is(err, context.Canceled) {
		return err
	}
	return nil
}

// newWorker registers a dist worker named name on node, wired into the
// telemetry plane.
func newWorker(plane *obs.Plane, node *cod.Node, name string, slots int, batch sim.BatchConfig) (*dist.Worker, error) {
	plane.AddNode(node.Name(), node)
	w, err := dist.NewWorker(node, dist.WorkerConfig{
		Name: name, Slots: slots, Batch: batch, Log: plane.Log(), Spans: plane.SpanSink(),
	})
	if err != nil {
		return nil, err
	}
	plane.AddDispatch(w.Sample)
	return w, nil
}

// openCoordinator opens the one coordinator every sweep dispatches
// through and returns once its workers have joined. With workerList set,
// they are the named hosts on the UDPLAN segment at lanAddr; empty, one
// in-process worker named "local" serves slots over a MemLAN — the same
// protocol, on a LAN that is just memory. width is how many lanes a
// campaign certifies on: the local worker's slots, or this host's cores
// when the runs are elsewhere. closeAll tears down what was opened.
func openCoordinator(ctx context.Context, plane *obs.Plane, lanAddr, workerList string,
	slots int, batch sim.BatchConfig) (coord *dist.Coordinator, width int, closeAll func(), err error) {
	var closers []func()
	closeOpened := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			closeOpened()
		}
	}()

	var node *cod.Node
	workers := []string{"local"}
	if workerList != "" {
		workers = nil
		for _, w := range strings.Split(workerList, ",") {
			if w = strings.TrimSpace(w); w != "" {
				workers = append(workers, w)
			}
		}
		if len(workers) == 0 {
			return nil, 0, nil, errors.New("-coordinator needs at least one worker name")
		}
		if node, err = cod.NewNode("codbatch-coordinator", cod.WithUDP(lanAddr)); err != nil {
			return nil, 0, nil, err
		}
		closers = append(closers, func() { node.Close() })
		width = runtime.NumCPU()
	} else {
		fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()))
		closers = append(closers, func() { fed.Close() })
		wnode, err := fed.Node("local-node")
		if err != nil {
			return nil, 0, nil, err
		}
		w, err := newWorker(plane, wnode, "local", slots, batch)
		if err != nil {
			return nil, 0, nil, err
		}
		wctx, stopWorker := context.WithCancel(ctx)
		done := make(chan struct{})
		go func() {
			defer close(done)
			_ = w.Run(wctx)
		}()
		closers = append(closers, func() {
			stopWorker()
			<-done
			w.Close()
		})
		if node, err = fed.Node("codbatch-coordinator"); err != nil {
			return nil, 0, nil, err
		}
		width = slots
	}
	plane.AddNode(node.Name(), node)

	// Give every run its per-run budget plus generous dispatch slack
	// before declaring the attempt lost; workers run what they claim
	// immediately, so queue wait does not count against this. A zero
	// Timeout means "scenario default" (up to 120 s of federation wall
	// clock), so substitute a budget at least that large.
	budget := batch.Timeout
	if budget <= 0 {
		budget = 2 * time.Minute
	}
	ccfg := dist.CoordinatorConfig{
		JobTimeout: 2*budget + time.Minute, Log: plane.Log(), Spans: plane.SpanSink(),
	}
	if coord, err = dist.NewCoordinator(node, ccfg); err != nil {
		return nil, 0, nil, err
	}
	closers = append(closers, func() { coord.Close() })
	plane.AddDispatch(coord.Sample)

	if workerList != "" {
		fmt.Printf("waiting for workers %s on %s\n", strings.Join(workers, ", "), lanAddr)
	}
	if err = coord.WaitWorkers(ctx, workers); err != nil {
		return nil, 0, nil, err
	}
	return coord, width, closeOpened, nil
}

// finishSweep is the shared tail of every batch mode: aggregate report,
// JSONL persistence, regression compare, strict verdict.
func finishSweep(recs []dist.Record, outPath, compare string, strict bool) error {
	dist.WriteReport(os.Stdout, dist.BuildReport(recs))
	if outPath != "" {
		if err := dist.SaveRecords(outPath, recs); err != nil {
			return err
		}
		fmt.Printf("wrote %d records to %s\n", len(recs), outPath)
	}
	if compare != "" {
		old, err := dist.LoadRecords(compare)
		if err != nil {
			return err
		}
		if n := dist.WriteCompare(os.Stdout, old, recs); n > 0 {
			return fmt.Errorf("%d scenario(s) regressed vs %s", n, compare)
		}
	}
	if strict {
		for _, r := range recs {
			if !r.Passed {
				return fmt.Errorf("job %d (%s) did not pass", r.Job, r.Scenario)
			}
		}
	}
	return nil
}

// flagSet reports whether the named flag was given on the command line.
func flagSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}

// selectSpecs resolves the scenario source (-specs dir or the built-in
// library) and the -scenarios name filter.
func selectSpecs(specsDir, names string) ([]scenario.Spec, error) {
	source := scenario.Library()
	if specsDir != "" {
		var err error
		if source, err = scenario.LoadSpecDir(specsDir); err != nil {
			return nil, err
		}
	}
	if names == "all" || names == "" {
		return source, nil
	}
	byName := make(map[string]scenario.Spec, len(source))
	for _, s := range source {
		byName[s.Name] = s
	}
	var specs []scenario.Spec
	for _, name := range strings.Split(names, ",") {
		s, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown scenario %q in this selection", strings.TrimSpace(name))
		}
		specs = append(specs, s)
	}
	return specs, nil
}

// describe summarizes a spec's special conditions for -list.
func describe(s scenario.Spec) string {
	var parts []string
	if !s.Wind.IsZero() {
		parts = append(parts, "wind")
	}
	if s.Visibility > 0 && s.Visibility < 1 {
		parts = append(parts, "night")
	}
	if n := s.CraneCount(); n > 1 {
		parts = append(parts, fmt.Sprintf("%d cranes", n))
	}
	for _, c := range s.Cargos {
		if c.HooksNeeded() > 1 {
			parts = append(parts, "tandem")
			break
		}
	}
	if len(s.Cargos) > 1 {
		parts = append(parts, fmt.Sprintf("%d cargos", len(s.Cargos)))
	}
	if len(parts) == 0 {
		return ""
	}
	return " (" + strings.Join(parts, ", ") + ")"
}
