package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"codsim/cod"
	"codsim/internal/dist"
	"codsim/internal/obs"
	"codsim/internal/scenario/gen"
	"codsim/internal/sim"
)

// parseCampaign splits the -campaign argument: "seed:count".
func parseCampaign(arg string) (seed int64, count int, err error) {
	s, c, ok := strings.Cut(arg, ":")
	if !ok {
		return 0, 0, fmt.Errorf("-campaign wants seed:count, got %q", arg)
	}
	if seed, err = strconv.ParseInt(strings.TrimSpace(s), 10, 64); err != nil {
		return 0, 0, fmt.Errorf("-campaign seed %q: %w", s, err)
	}
	if count, err = strconv.Atoi(strings.TrimSpace(c)); err != nil {
		return 0, 0, fmt.Errorf("-campaign count %q: %w", c, err)
	}
	if count <= 0 {
		return 0, 0, fmt.Errorf("-campaign count %d must be positive", count)
	}
	return seed, count, nil
}

// campaignRun bundles one campaign's identity (seed, count, params) with
// the path of its persistent verdict cache.
type campaignRun struct {
	seed      int64
	count     int
	params    gen.Params
	cachePath string
}

// newCampaignStream builds the certified-candidate stream for a campaign:
// prefetching (unless previewing), cache-backed when -campaign-cache is
// set, metered through the obs plane. A preview certifies on the free
// static oracle plus cached dry-run verdicts only — and opens the cache
// read-only, so weaker verdicts never poison what strict campaigns
// trust. The cleanup func stops the stream's certification lanes and
// flushes the cache.
func newCampaignStream(plane *obs.Plane, cr campaignRun, width int, preview bool) (*gen.Stream, func(), error) {
	stream := gen.NewStream(cr.seed, cr.params)
	stream.Parallel = width
	stream.Prefetch = !preview
	if preview {
		stream.Oracle = gen.StaticOnly
	}
	closeCache := func() {}
	if cr.cachePath != "" {
		cache, err := gen.OpenCache(cr.cachePath, cr.seed, cr.params)
		if err != nil {
			return nil, nil, err
		}
		cache.ReadOnly = preview
		stream.Cache = cache
		closeCache = func() { _ = cache.Close() }
	}
	stream.Hooks = streamHooks(plane)
	return stream, func() { stream.Close(); closeCache() }, nil
}

// streamHooks wires a stream's work into the telemetry plane:
// codsim_gen_candidates_total by verdict, codsim_gen_cache_total by
// hit/miss, and the oracle dry-run wall histogram. gen is a deterministic
// package, so the wall clock is injected from here. A nil plane (no -obs)
// disables the hooks entirely.
func streamHooks(plane *obs.Plane) gen.Hooks {
	if plane == nil {
		return gen.Hooks{}
	}
	candidates := plane.Registry.CounterVec("codsim_gen_candidates_total",
		"Campaign candidates sampled, by final verdict.", "verdict")
	emitted := candidates.With("emitted")
	staticRej := candidates.With("static-reject")
	oracleRej := candidates.With("oracle-reject")
	cacheVec := plane.Registry.CounterVec("codsim_gen_cache_total",
		"Campaign verdict-cache consults, by result.", "result")
	hit, miss := cacheVec.With("hit"), cacheVec.With("miss")
	wall := plane.Registry.Histogram("codsim_gen_oracle_seconds",
		"Wall-clock seconds per live oracle dry-run.", nil)
	start := time.Now()
	return gen.Hooks{
		Clock: func() float64 { return time.Since(start).Seconds() },
		Candidate: func(verdict string) {
			switch verdict {
			case "emitted":
				emitted.Inc()
			case "static-reject":
				staticRej.Inc()
			default:
				oracleRej.Inc()
			}
		},
		CacheResult: func(isHit bool) {
			if isHit {
				hit.Inc()
			} else {
				miss.Inc()
			}
		},
		OracleWall: wall.Observe,
	}
}

// campaignSource feeds a bounded number of certified generated scenarios
// into a coordinator: job ID is the emission index, job Seed the
// generator candidate index, so records and skill jitter stay keyed to
// the reproducible stream.
type campaignSource struct {
	stream  *gen.Stream
	count   int
	emitted int
}

func (cs *campaignSource) Next(ctx context.Context) (dist.Job, bool, error) {
	if cs.emitted >= cs.count {
		return dist.Job{}, false, nil
	}
	spec, cand, err := cs.stream.Next(ctx)
	if err != nil {
		return dist.Job{}, false, err
	}
	j := dist.Job{ID: int64(cs.emitted), Seed: cand, Spec: spec}
	cs.emitted++
	return j, true, nil
}

// listCampaign previews the candidate stream without flying anything: the
// free static oracle — plus any cached dry-run verdicts when a
// -campaign-cache is given, so a warmed preview already excludes known
// uncompletable candidates — and rows print instantly. The certified
// campaign dispatches these same candidates minus whatever the dry-run
// oracle vetoes.
func listCampaign(cr campaignRun) error {
	stream, cleanup, err := newCampaignStream(nil, cr, 0, true)
	if err != nil {
		return err
	}
	defer cleanup()
	fmt.Printf("campaign %s (pre-oracle preview)\n", gen.Key(cr.seed, cr.count, cr.params))
	for i := 0; i < cr.count; i++ {
		spec, cand, err := stream.Next(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("%4d  cand %-4d %-12s %d crane(s), %d cargo(s)%s\n",
			i, cand, spec.Name, spec.CraneCount(), len(spec.Cargos), describe(spec))
	}
	st := stream.Stats()
	fmt.Printf("%d candidates sampled, %d static rejects\n", st.Candidates, st.StaticRejects)
	if st.CacheHits+st.CacheMisses > 0 {
		fmt.Printf("verdict cache: %d hits, %d misses\n", st.CacheHits, st.CacheMisses)
	}
	return nil
}

// campaignSummary prints the generator's tallies after a sweep — the
// acceptance bar is zero uncompletable specs dispatched, so the vetoes
// are reported, not hidden.
func campaignSummary(key string, st gen.Stats, wall time.Duration) {
	fmt.Printf("campaign %s: %d certified jobs from %d candidates (%d static + %d oracle rejects resampled) in %.1fs wall\n",
		key, st.Emitted, st.Candidates, st.StaticRejects, st.OracleRejects, wall.Seconds())
	if st.CacheHits+st.CacheMisses > 0 {
		fmt.Printf("verdict cache: %d hits, %d misses, %d live dry-runs\n",
			st.CacheHits, st.CacheMisses, st.OracleRuns)
	}
}

// runCampaignLocal runs a generated campaign on this host, still through
// the dist protocol: an in-process MemLAN federation carries one
// coordinator streaming certified jobs to one worker serving -parallel
// slots. Identical dispatch semantics to the multi-host path — the LAN is
// just memory.
func runCampaignLocal(ctx context.Context, plane *obs.Plane, cr campaignRun,
	slots int, batch sim.BatchConfig, outPath, compare string, strict bool) error {
	if slots <= 0 {
		if batch.Headless {
			slots = runtime.NumCPU()
		} else {
			slots = max(1, runtime.NumCPU()/4)
		}
	}
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()))
	defer fed.Close()

	wnode, err := fed.Node("campaign-worker-node")
	if err != nil {
		return err
	}
	plane.AddNode("campaign-worker-node", wnode)
	wcfg := dist.WorkerConfig{
		Name:  "local",
		Slots: slots,
		Batch: batch,
	}
	if plane != nil {
		wcfg.Log = plane.Log()
		wcfg.Spans = plane.SpanSink()
	}
	worker, err := dist.NewWorker(wnode, wcfg)
	if err != nil {
		return err
	}
	defer worker.Close()
	plane.AddDispatch(worker.Sample)
	wctx, stopWorker := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = worker.Run(wctx)
	}()
	defer wg.Wait()
	defer stopWorker()

	cnode, err := fed.Node("campaign-coordinator-node")
	if err != nil {
		return err
	}
	plane.AddNode("campaign-coordinator-node", cnode)
	ccfg := dist.CoordinatorConfig{}
	if plane != nil {
		ccfg.Log = plane.Log()
		ccfg.Spans = plane.SpanSink()
	}
	coord, err := dist.NewCoordinator(cnode, ccfg)
	if err != nil {
		return err
	}
	defer coord.Close()
	plane.AddDispatch(coord.Sample)
	if err := coord.WaitWorkers(ctx, []string{"local"}); err != nil {
		return err
	}
	return runCampaignSweep(ctx, plane, coord, cr, slots, outPath, compare, strict)
}

// runCampaignCoordinator streams a generated campaign over the segment to
// the named worker hosts.
func runCampaignCoordinator(ctx context.Context, plane *obs.Plane, lanAddr, workerList string,
	cr campaignRun, outPath, compare string, strict bool) error {
	var workers []string
	for _, w := range strings.Split(workerList, ",") {
		if w = strings.TrimSpace(w); w != "" {
			workers = append(workers, w)
		}
	}
	if len(workers) == 0 {
		return errors.New("-coordinator needs at least one worker name")
	}
	node, err := cod.NewNode("codbatch-coordinator", cod.WithUDP(lanAddr))
	if err != nil {
		return err
	}
	defer node.Close()
	plane.AddNode("codbatch-coordinator", node)
	ccfg := dist.CoordinatorConfig{}
	if plane != nil {
		ccfg.Log = plane.Log()
		ccfg.Spans = plane.SpanSink()
	}
	coord, err := dist.NewCoordinator(node, ccfg)
	if err != nil {
		return err
	}
	defer coord.Close()
	plane.AddDispatch(coord.Sample)
	fmt.Printf("waiting for workers %s on %s\n", strings.Join(workers, ", "), lanAddr)
	if err := coord.WaitWorkers(ctx, workers); err != nil {
		return err
	}
	return runCampaignSweep(ctx, plane, coord, cr, runtime.NumCPU(), outPath, compare, strict)
}

// runCampaignSweep is the shared dispatch tail: certified generator
// stream in (its lanes certifying ahead of dispatch), JSONL records and
// percentile report out.
func runCampaignSweep(ctx context.Context, plane *obs.Plane, coord *dist.Coordinator,
	cr campaignRun, oracleWidth int, outPath, compare string, strict bool) error {
	key := gen.Key(cr.seed, cr.count, cr.params)
	fmt.Printf("campaign %s: dispatching %d certified scenarios (window-streamed, oracle-certified)\n", key, cr.count)

	stream, cleanup, err := newCampaignStream(plane, cr, oracleWidth, false)
	if err != nil {
		return err
	}
	defer cleanup()
	src := &campaignSource{stream: stream, count: cr.count}
	start := time.Now()
	recs, err := coord.RunStream(ctx, src)
	if err != nil {
		if outPath != "" && len(recs) > 0 {
			_ = dist.SaveRecords(outPath, recs)
		}
		return fmt.Errorf("campaign aborted with %d/%d records: %w", len(recs), cr.count, err)
	}
	campaignSummary(key, stream.Stats(), time.Since(start))
	if outPath == "" {
		fmt.Printf("hint: -out %s.jsonl persists this sweep for -compare/-trend\n", key)
	}
	return finishSweep(recs, outPath, compare, strict)
}

// reproduceCampaign regenerates the certified job list without
// dispatching — the determinism check behind "re-running the same
// seed+params reproduces the identical job list". Used by tests; kept
// here so the CLI and the check cannot drift apart.
func reproduceCampaign(ctx context.Context, seed int64, count int, params gen.Params) ([]dist.Job, gen.Stats, error) {
	return replayCampaign(ctx, campaignRun{seed: seed, count: count, params: params}, 0)
}

// replayCampaign is reproduceCampaign through the full stream
// configuration — cache and prefetch — so cold-vs-warm cache and
// prefetch determinism checks exercise exactly the code path a dispatched
// campaign uses.
func replayCampaign(ctx context.Context, cr campaignRun, width int) ([]dist.Job, gen.Stats, error) {
	stream, cleanup, err := newCampaignStream(nil, cr, width, false)
	if err != nil {
		return nil, gen.Stats{}, err
	}
	defer cleanup()
	src := &campaignSource{stream: stream, count: cr.count}
	var jobs []dist.Job
	for {
		j, ok, err := src.Next(ctx)
		if err != nil || !ok {
			return jobs, stream.Stats(), err
		}
		jobs = append(jobs, j)
	}
}
