package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"codsim/cod"
	"codsim/internal/dist"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
)

// coldShare is the part of the measuring time the cold phase streams jobs
// for. The warm phase then replays exactly the jobs the cold phase
// emitted; at the reference box's ~100 cold and ~280 warm jobs/s the two
// phases together fill the measuring time.
const coldShare = 0.72

// campaignPhase is one pass of the campaign with its outputs.
type campaignPhase struct {
	sweep     sweepResult
	stats     gen.Stats
	src       *timedSource
	openCache time.Duration
}

// runCampaign is an in-process replica of
//
//	codbatch -campaign <seed>:N -headless -strict -campaign-cache <tmp>
//
// from the same public pieces: a federation on an in-memory LAN, one worker
// with a slot per core, the default coordinator, a prefetching gen.Stream
// certifying with one dry-run per core, and the persistent verdict cache.
// Phase cold starts from an empty cache file — every candidate flies an
// oracle dry-run and its verdict is appended — and streams jobs for
// coldShare of the measuring time. Phase warm builds a fresh federation,
// a new stream and reopens the cache: the same jobs, zero dry-runs,
// verdicts replayed. Closed loop, 64 jobs in flight.
func runCampaign(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{layer: make(map[string]float64)}
	params := gen.DefaultParams()
	dir, err := scratchDir(cfg, "campaign")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cachePath := filepath.Join(dir, "verdicts.jsonl")

	newRig := func() (*distRig, error) {
		began := time.Now()
		rig, err := newDistRig(ctx, cfg, cod.NewMemLAN(), []workerSpec{{"local", slotsPerCore()}}, tr)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(began).Seconds())
		return rig, nil
	}
	// phase runs one pass: limit 0 is the time-boxed cold pass, limit n the
	// warm replay of n jobs.
	phase := func(rig *distRig, name string, limit int) (*campaignPhase, error) {
		id := tr.begin(tr.rootID(), name, "phase")
		defer tr.end(id)
		p := &campaignPhase{}
		began := time.Now()
		cache, err := gen.OpenCache(cachePath, cfg.seed, params)
		if err != nil {
			return nil, err
		}
		p.openCache = time.Since(began)
		stream := gen.NewStream(cfg.seed, params)
		stream.Parallel = slotsPerCore()
		stream.Prefetch = true
		stream.Cache = cache
		if tr != nil {
			oracle := gen.DefaultOracle(params)
			stream.Oracle = func(ctx context.Context, spec scenario.Spec) (bool, error) {
				op := tr.begin(id, "candidate", "gen")
				defer tr.end(op)
				return oracle(ctx, spec)
			}
		}
		p.src = &timedSource{tr: tr, phase: id, limit: limit}
		if limit == 0 {
			p.src.deadline = time.Now().Add(cfg.share(coldShare))
		}
		emitted := int64(0)
		p.src.next = func(ctx context.Context) (dist.Job, bool, error) {
			spec, cand, err := stream.Next(ctx)
			if err != nil {
				return dist.Job{}, false, err
			}
			// Same keying as codbatch: job ID is the emission index, job
			// Seed the generator's candidate index.
			j := dist.Job{ID: emitted, Seed: cand, Spec: spec}
			emitted++
			return j, true, nil
		}
		p.sweep, err = rig.sweep(ctx, p.src)
		stream.Close()
		p.stats = stream.Stats()
		if cerr := cache.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s phase: %w", name, err)
		}
		rig.jobSpans(id, p.sweep.recs)
		return p, nil
	}

	// Set-up repetitions: the first federation is built and torn down, the
	// second serves the cold phase, the third the warm phase.
	warmup, err := newRig()
	if err != nil {
		return nil, err
	}
	warmup.close()
	coldRig, err := newRig()
	if err != nil {
		return nil, err
	}
	cold, err := phase(coldRig, "cold", 0)
	coldTotals := &cbTotals{}
	coldTotals.addFed(coldRig.fed)
	if err == nil && tr != nil {
		coldRig.distLayer(out.layer, cold.sweep)
	}
	coldRig.close()
	if err != nil {
		return nil, err
	}
	jobs := cold.src.emitted
	if jobs == 0 {
		return nil, fmt.Errorf("cold phase emitted no job in %.1fs", coldShare*cfg.seconds)
	}

	warmRig, err := newRig()
	if err != nil {
		return nil, err
	}
	warm, err := phase(warmRig, "warm", jobs)
	warmRig.close()
	if err != nil {
		return nil, err
	}

	out.ops = int64(2 * jobs)
	checkRecords(out, "cold", cold.sweep.recs, jobs, nil)
	checkRecords(out, "warm", warm.sweep.recs, jobs, cold.sweep.recs)
	cs, ws := cold.stats, warm.stats
	if cs.Candidates != ws.Candidates || cs.StaticRejects != ws.StaticRejects ||
		cs.OracleRejects != ws.OracleRejects || cs.Emitted != ws.Emitted {
		out.fail("campaign tallies differ cold %+v vs warm %+v", cs, ws)
	}
	if ws.OracleRuns != 0 || ws.CacheMisses != 0 {
		out.fail("warm phase flew %d dry-runs (%d cache misses), want 0", ws.OracleRuns, ws.CacheMisses)
	}
	if ws.CacheHits != cs.CacheHits+cs.CacheMisses {
		out.fail("warm cache hits %d != cold consults %d", ws.CacheHits, cs.CacheHits+cs.CacheMisses)
	}
	if cs.CacheHits != 0 || cs.OracleRuns != cs.CacheMisses {
		out.fail("cold phase: %d hits on an empty cache, %d dry-runs for %d misses", cs.CacheHits, cs.OracleRuns, cs.CacheMisses)
	}

	out.primary = float64(jobs) / cold.sweep.usage.wall.Seconds()
	out.secondary = float64(jobs) / warm.sweep.usage.wall.Seconds()
	out.timed = cold.sweep.usage.plus(warm.sweep.usage)
	out.cpuOps = out.ops

	if tr != nil {
		l := out.layer
		coldTotals.fill(l)
		spans := tr.snapshot()
		l["gen.oracle_ms"] = median(durationsMS(spans, "candidate"))
		l["gen.stream_wait_ms"] = perOp(cold.src.waited.Seconds()*1e3, int64(jobs))
		l["gen.cache_open_ms"] = warm.openCache.Seconds() * 1e3
		if fi, err := os.Stat(cachePath); err == nil {
			l["gen.cache_bytes"] = float64(fi.Size())
		}
		l["gen.candidates"] = float64(cs.Candidates)
		l["gen.static_rejects"] = float64(cs.StaticRejects)
		l["gen.oracle_rejects"] = float64(cs.OracleRejects)
		l["gen.oracle_runs"] = float64(cs.OracleRuns)
		l["gen.cache_hits"] = float64(ws.CacheHits)
		l["gen.cache_misses"] = float64(cs.CacheMisses)
		l["gen.emit_ratio"] = perOp(float64(cs.Emitted), cs.Candidates)
		l["dist.spec_json_bytes"] = perOp(float64(cold.src.specBytes), int64(jobs))
	}
	return out, nil
}

// checkRecords fails one op per wrong record: a sweep must return exactly
// one record per job, sorted by ID, each passed without error — and, given
// a reference sweep of the same jobs, with the reference's phase and score.
func checkRecords(out *outcome, name string, recs []dist.Record, jobs int, ref []dist.Record) {
	if len(recs) != jobs {
		out.fail("%s: %d records for %d jobs", name, len(recs), jobs)
	}
	for i, rec := range recs {
		switch {
		case rec.Job != int64(i):
			out.fail("%s: record %d has job ID %d (missing, duplicate or unsorted)", name, i, rec.Job)
		case rec.Err != "" || !rec.Passed:
			out.fail("%s: job %d (%s) failed: %s score=%.1f %s", name, rec.Job, rec.Scenario, rec.Phase, rec.Score, rec.Err)
		case i < len(ref) && (rec.Score != ref[i].Score || rec.Phase != ref[i].Phase || rec.Scenario != ref[i].Scenario):
			out.fail("%s: job %d (%s) %s score %v, reference (%s) %s score %v", name, rec.Job,
				rec.Scenario, rec.Phase, rec.Score, ref[i].Scenario, ref[i].Phase, ref[i].Score)
		}
	}
}

// scratchDir makes a private directory under the run's work directory.
func scratchDir(cfg runConfig, name string) (string, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return "", fmt.Errorf("work dir: %w", err)
	}
	dir, err := os.MkdirTemp(cfg.workDir, name+"-")
	if err != nil {
		return "", fmt.Errorf("work dir: %w", err)
	}
	return dir, nil
}
