package main

import (
	"context"
	"fmt"
	"time"
)

// perLayer are the metrics of single layers, prefix = module. A traced run
// prints all of them. They come from two places: the workload's own spans
// and counters (a layer the workload never touches reads 0 — that is the
// evidence it was bypassed), and the probe suite below, which calls each
// layer's public API directly the same way in every traced run.
var perLayer = []metricDef{
	// Process, over the workload's timed sections.
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.allocs_per_op", "count", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"proc.trace_overhead_ratio", "ratio", "lower", 0},

	// Federation (fed_exam).
	{"sim.boot_ms", "ms", "lower", 0},
	{"sim.stop_ms", "ms", "lower", 0},
	{"sim.allocs_per_sim_s", "count", "lower", 0},
	{"sim.state_rate_ratio", "ratio", "higher", 0},
	{"sim.state_gap_p99_ms", "ms", "lower", 0},
	{"displaysync.swaps", "count", "higher", 0},
	{"displaysync.evicted", "count", "lower", 0},

	// Backbone counters, summed over every node of the workload.
	{"cb.updates", "count", "lower", 0},
	{"cb.reflects", "count", "lower", 0},
	{"cb.updates_per_sim_s", "1/s", "lower", 0},
	{"cb.reflects_per_sim_s", "1/s", "lower", 0},
	{"cb.conflations", "count", "lower", 0},
	{"cb.mailbox_dropped", "count", "lower", 0},
	{"cb.credit_stalls", "count", "lower", 0},
	{"cb.credits_granted", "count", "lower", 0},
	{"cb.links_down", "count", "lower", 0},
	{"cb.channels_up", "count", "lower", 0},
	{"cb.establish_ms", "ms", "lower", 0},
	// Backbone timings of cb_stream's pingpong and conflate phases.
	{"cb.rtt_p50_us", "us", "lower", 0},
	{"cb.rtt_p99_us", "us", "lower", 0},
	{"cb.conflate_ratio", "ratio", "higher", 0},
	{"cb.conflate_pub_per_s", "1/s", "higher", 0},

	// Certification (campaign).
	{"gen.oracle_ms", "ms", "lower", 0},
	{"gen.stream_wait_ms", "ms", "lower", 0},
	{"gen.cache_open_ms", "ms", "lower", 0},
	{"gen.cache_bytes", "bytes", "lower", 0},
	{"gen.candidates", "count", "lower", 0},
	{"gen.static_rejects", "count", "lower", 0},
	{"gen.oracle_rejects", "count", "lower", 0},
	{"gen.oracle_runs", "count", "lower", 0},
	{"gen.cache_hits", "count", "higher", 0},
	{"gen.cache_misses", "count", "lower", 0},
	{"gen.emit_ratio", "ratio", "higher", 0},

	// Dispatch (campaign cold phase, dist_sweep udp phase).
	{"dist.queue_ms", "ms", "lower", 0},
	{"dist.dispatch_ms", "ms", "lower", 0},
	{"dist.run_ms", "ms", "lower", 0},
	{"dist.ack_ms", "ms", "lower", 0},
	{"dist.slot_busy_ratio", "ratio", "higher", 0},
	{"dist.attempts_per_job", "ratio", "lower", 0},
	{"dist.redispatches", "count", "lower", 0},
	{"dist.spec_json_bytes", "bytes", "lower", 0},

	// Probe suite: direct calls into each layer, every traced run.
	{"render.frame_ms", "ms", "lower", 0},
	{"render.freerun_fps", "1/s", "higher", 0},
	{"displaysync.barrier_rtt_us", "us", "lower", 0},
	{"lp.pace_ratio", "ratio", "higher", 0},
	{"lp.tick_jitter_p99_us", "us", "lower", 0},
	{"fom.encode_ns", "ns", "lower", 0},
	{"fom.decode_ns", "ns", "lower", 0},
	{"wire.encode_ns", "ns", "lower", 0},
	{"wire.decode_ns", "ns", "lower", 0},
	{"wire.frame_bytes", "bytes", "lower", 0},
	{"transport.mem_write_ns", "ns", "lower", 0},
	{"transport.mem_frames_per_s", "1/s", "higher", 0},
	{"transport.udp_rtt_us", "us", "lower", 0},
	{"transport.udp_frames_per_s", "1/s", "higher", 0},
	{"cod.update_ns", "ns", "lower", 0},
	{"cod.codec_ns", "ns", "lower", 0},
	{"cb.local_update_ns", "ns", "lower", 0},
	{"cb.remote_update_ns", "ns", "lower", 0},
	{"cb.allocs_per_frame", "count", "lower", 0},
	{"cb.bytes_per_frame", "bytes", "lower", 0},
	{"cb.channel_setup_ms", "ms", "lower", 0},
	{"cb.blob_mb_per_s", "MB/s", "higher", 0},
	{"gen.generate_us", "us", "lower", 0},
	{"gen.static_check_us", "us", "lower", 0},
	{"trace.control_ns", "ns", "lower", 0},
	{"dynamics.step_ns", "ns", "lower", 0},
	{"scenario.step_ns", "ns", "lower", 0},
	{"trace.step_ns", "ns", "lower", 0},
	{"trace.parts_ratio", "ratio", "lower", 0},
	{"trace.setup_us", "us", "lower", 0},
	{"trace.sim_s_per_s", "1/s", "higher", 0},
	{"collision.find_us", "us", "lower", 0},
	{"terrain.height_ns", "ns", "lower", 0},
	{"dist.record_json_us", "us", "lower", 0},
	{"scenario.marshal_spec_us", "us", "lower", 0},
	{"scenario.unmarshal_spec_us", "us", "lower", 0},
}

// probe is one layer's direct measurement; it writes its metrics into l.
type probe struct {
	layer string
	run   func(ctx context.Context, cfg runConfig, l map[string]float64) error
}

var probes = []probe{
	{"fom", probeFOM},
	{"wire", probeWire},
	{"transport", probeTransport},
	{"cb", probeCB},
	{"cod", probeCod},
	{"displaysync", probeBarrier},
	{"lp", probeLP},
	{"render", probeRender},
	{"gen", probeGen},
	{"trace", probeKernel},
	{"scenario", probeJSON},
}

// runProbes runs the probe suite under one "probes" phase span, one op span
// per layer.
func runProbes(ctx context.Context, cfg runConfig, tr *tracer, l map[string]float64) error {
	phase := tr.begin(tr.rootID(), "probes", "phase")
	defer tr.end(phase)
	for _, p := range probes {
		id := tr.begin(phase, "probe", p.layer)
		err := p.run(ctx, cfg, l)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("%s: %w", p.layer, err)
		}
	}
	return nil
}

// probeCount scales a probe's iteration count down for -quick.
func probeCount(cfg runConfig, n int) int {
	if cfg.quick {
		return max(1, n/20)
	}
	return n
}

// probeSpan scales a probe's duration down for -quick.
func probeSpan(cfg runConfig, d time.Duration) time.Duration {
	if cfg.quick {
		return d / 10
	}
	return d
}

// timeOp returns the median ns per call of fn: it sizes a chunk of calls
// to about 10 ms, runs seven chunks and takes the median chunk's mean, so
// one scheduler hiccup cannot move the figure.
func timeOp(fn func()) float64 {
	const (
		chunk  = 10 * time.Millisecond
		chunks = 7
	)
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(start)
		if d >= chunk/4 || n >= 1<<24 {
			n = max(1, int(float64(n)*float64(chunk)/float64(max(d, 1))))
			break
		}
		n *= 4
	}
	per := make([]float64, chunks)
	for c := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[c] = float64(time.Since(start).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// clockNS is what one time.Now costs; the kernel replica subtracts it from
// every interval it times.
func clockNS() float64 {
	var sink time.Time
	ns := timeOp(func() { sink = time.Now() })
	_ = sink
	return ns
}
