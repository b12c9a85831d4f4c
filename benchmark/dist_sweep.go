package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"codsim/cod"
	"codsim/internal/dist"
	"codsim/internal/scenario"
	"codsim/internal/sim"
)

// udpShare is the part of the measuring time the sweep runs on UDP
// loopback; the rest repeats it on the in-memory LAN.
const udpShare = 0.62

// runDistSweep streams shuffled repeats of the eight library scenarios
// through a coordinator and workers w1, w2 (two slots each, headless, default
// timers). Phase udp runs on UDPLAN loopback — real UDP discovery and TCP
// channels on 127.0.0.1, multi-KB JSON payloads through the kernel's
// network stack; phase mem repeats the sweep on the in-memory LAN, so the
// difference is what the sockets cost. Closed loop, 64 jobs in flight, 4
// slots. Every record is checked against a local sim.RunBatch of its spec.
func runDistSweep(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error) {
	out := &outcome{layer: make(map[string]float64)}
	library := scenario.Library()
	// Two slots per worker: four slots keep both cores of the reference box
	// busy, so the sweep is CPU-bound. One slot each left a core idle
	// whenever both workers bid for the same announce, and the sweep flipped
	// between ~115 and ~140 jobs/s depending on whether they stayed in step.
	workers := []workerSpec{{"w1", 2}, {"w2", 2}}

	newRig := func(udp bool) (*distRig, error) {
		began := time.Now()
		lan := cod.NewMemLAN()
		if udp {
			var err error
			if lan, err = udpLoopback(len(workers) + 1); err != nil {
				return nil, err
			}
		}
		rig, err := newDistRig(ctx, cfg, lan, workers, tr)
		if err != nil {
			return nil, err
		}
		out.setup = append(out.setup, time.Since(began).Seconds())
		return rig, nil
	}

	// The reference verdicts: each library spec flown locally, once.
	refs := make(map[string]sim.BatchResult, len(library))
	for _, res := range sim.RunBatch(ctx, library, sim.BatchConfig{Headless: true}) {
		if res.Err != nil {
			return nil, fmt.Errorf("reference run of %s: %w", res.Scenario, res.Err)
		}
		if !res.Passed {
			return nil, fmt.Errorf("reference run of %s ended %v, score %v", res.Scenario, res.State.Phase, res.State.Score)
		}
		refs[res.Scenario] = res
	}

	// phase runs one time-boxed sweep: the job order is a seeded shuffle of
	// each repeat of the library, so a worker never sees a fixed rotation.
	phase := func(rig *distRig, name string, share float64) (sweepResult, *timedSource, error) {
		id := tr.begin(tr.rootID(), name, "phase")
		defer tr.end(id)
		rng := rand.New(rand.NewSource(cfg.seed))
		var order []int
		emitted := int64(0)
		src := &timedSource{
			tr: tr, phase: id,
			deadline: time.Now().Add(cfg.share(share)),
			next: func(context.Context) (dist.Job, bool, error) {
				if len(order) == 0 {
					order = rng.Perm(len(library))
				}
				spec := library[order[0]]
				order = order[1:]
				j := dist.Job{ID: emitted, Seed: emitted/int64(len(library)) + 1, Spec: spec}
				emitted++
				return j, true, nil
			},
		}
		sw, err := rig.sweep(ctx, src)
		if err != nil {
			return sw, src, fmt.Errorf("%s phase: %w", name, err)
		}
		rig.jobSpans(id, sw.recs)
		return sw, src, nil
	}
	check := func(name string, sw sweepResult, jobs int) {
		checkRecords(out, name, sw.recs, jobs, nil)
		for _, rec := range sw.recs {
			ref, ok := refs[rec.Scenario]
			if !ok || rec.Score != ref.State.Score || rec.Phase != ref.State.Phase.String() {
				out.fail("%s: job %d (%s) %s score %v, local reference %v score %v", name, rec.Job,
					rec.Scenario, rec.Phase, rec.Score, ref.State.Phase, ref.State.Score)
			}
		}
	}

	// Set-up repetitions: a UDP federation built and torn down, the UDP
	// one the sweep uses, then the in-memory one.
	warmup, err := newRig(true)
	if err != nil {
		return nil, err
	}
	warmup.close()
	udpRig, err := newRig(true)
	if err != nil {
		return nil, err
	}
	udp, udpSrc, err := phase(udpRig, "udp", udpShare)
	udpTotals := &cbTotals{}
	udpTotals.addFed(udpRig.fed)
	if err == nil && tr != nil {
		udpRig.distLayer(out.layer, udp)
	}
	udpRig.close()
	if err != nil {
		return nil, err
	}

	memRig, err := newRig(false)
	if err != nil {
		return nil, err
	}
	mem, memSrc, err := phase(memRig, "mem", 1-udpShare)
	memRig.close()
	if err != nil {
		return nil, err
	}

	out.ops = int64(udpSrc.emitted + memSrc.emitted)
	if udpSrc.emitted == 0 || memSrc.emitted == 0 {
		return nil, fmt.Errorf("a phase emitted no job (udp %d, mem %d)", udpSrc.emitted, memSrc.emitted)
	}
	check("udp", udp, udpSrc.emitted)
	check("mem", mem, memSrc.emitted)

	out.primary = float64(udpSrc.emitted) / udp.usage.wall.Seconds()
	out.secondary = float64(memSrc.emitted) / mem.usage.wall.Seconds()
	out.timed = udp.usage.plus(mem.usage)
	out.cpuOps = out.ops

	if tr != nil {
		udpTotals.fill(out.layer)
		out.layer["dist.spec_json_bytes"] = perOp(float64(udpSrc.specBytes), int64(udpSrc.emitted))
	}
	return out, nil
}
