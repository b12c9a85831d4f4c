package main

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"codsim/internal/dist"
	"codsim/internal/obs"
	"codsim/internal/scenario/gen"
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
// are reported, not hidden — and how many jobs the coordinator answered
// from their certification instead of dispatching them (the dry-run's
// result cold, the verdict-cache row's warm) and how many it dispatched to
// audit their row (Coordinator.Answered).
func campaignSummary(key string, st gen.Stats, answered, audited int64, wall time.Duration) {
	fmt.Printf("campaign %s: %d certified jobs from %d candidates (%d static + %d oracle rejects resampled) in %.1fs wall\n",
		key, st.Emitted, st.Candidates, st.StaticRejects, st.OracleRejects, wall.Seconds())
	if st.CacheHits+st.CacheMisses > 0 {
		fmt.Printf("verdict cache: %d hits, %d misses, %d live dry-runs\n",
			st.CacheHits, st.CacheMisses, st.OracleRuns)
	}
	fmt.Printf("%d of %d jobs answered by their certification, %d flown to audit their cache row\n",
		answered, st.Emitted, audited)
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
