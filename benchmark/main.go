// Command benchmark (codbench) is the repository's end-to-end benchmark:
// one invocation runs one workload in one process, checks its outputs, and
// prints every metric by name with its unit. See README.md beside this
// file for the workloads, the metrics and how they interact.
//
//	go run ./benchmark -workload fed_exam -seed 42 -seconds 26 -trace 0
//
// The last line of standard output is the result as one JSON object; the
// human-readable report goes to standard error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// metricDef names one metric. bound is the share of the parent's median by
// which an end-to-end metric may worsen (per-layer metrics have none).
type metricDef struct {
	name   string
	unit   string
	better string // "higher" or "lower"
	bound  float64
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them; what "op" means per workload is in workloadDefs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"primary_per_s", "1/s", "higher", 0.25},
	{"secondary_per_s", "1/s", "higher", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.20},
}

// workloadDef describes one workload: what its two rates count.
type workloadDef struct {
	name      string
	primary   string // what primary_per_s counts
	secondary string // what secondary_per_s counts
	run       func(ctx context.Context, cfg runConfig, tr *tracer) (*outcome, error)
}

var workloadDefs = []workloadDef{
	{"fed_exam", "display_fps: frames all three displays showed together per wall second",
		"LP ticks per wall second (60 x real-time factor; 60 x TimeScale when the pace is held)", runFedExam},
	{"campaign", "cold_jobs_per_s: certified + dispatched + flown jobs per second, empty verdict cache",
		"warm_jobs_per_s: the same jobs per second replayed from the verdict cache", runCampaign},
	{"dist_sweep", "jobs_per_s: library jobs per second through coordinator + 2 workers on UDP loopback",
		"the same sweep's jobs per second on the in-memory LAN", runDistSweep},
	{"cb_stream", "frames_per_s: frames consumed by 3 Reliable subscribers per second of fan-out",
		"ping-pong round trips per second at depth 1, at the median round trip (1e6 / rtt_p50_us)", runCBStream},
}

// runConfig is one run's inputs.
type runConfig struct {
	seed    int64
	seconds float64 // measuring time
	quick   bool    // smoke sizes: same code and checks, tiny scenes
	workDir string  // scratch directory inside the checkout
}

// share is the given fraction of the measuring time.
func (c runConfig) share(f float64) time.Duration {
	return time.Duration(f * c.seconds * float64(time.Second))
}

// outcome is what one workload run measured.
type outcome struct {
	ops, failed int64
	errs        []string  // what failed, for the report
	setup       []float64 // seconds per set-up repetition
	primary     float64   // primary ops per second
	secondary   float64   // secondary ops per second
	timed       section   // process usage over the timed sections
	cpuOps      int64     // ops that timed.cpu is divided by
	layer       map[string]float64
}

// fail counts one failed op and keeps the first few reasons.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.errs) < 8 {
		o.errs = append(o.errs, fmt.Sprintf(format, args...))
	}
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	start := time.Now()
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "workload to run: fed_exam, campaign, dist_sweep or cb_stream (-selfcheck also takes a comma list or \"all\")")
		seed      = fs.Int64("seed", 42, "seed for campaign seed, job order and payload bytes")
		seconds   = fs.Float64("seconds", 26, "how long the workload measures")
		trace     = fs.Int("trace", 0, "1 = traced run: per-layer metrics and a span file; 0 = end-to-end metrics")
		traceOut  = fs.String("trace-out", "", "span file path (default <work-dir>/trace-<workload>-<seed>.json)")
		workDir   = fs.String("work-dir", filepath.Join(".bench_build", "codbench"), "scratch directory for the verdict cache and span files")
		quick     = fs.Bool("quick", false, "smoke sizes: same code paths and checks, tiny scenes")
		selfcheck = fs.Bool("selfcheck", false, "A/A gate: run the workloads in two sets of -runs and fail if any end-to-end median worsens by more than its bound")
		runs      = fs.Int("runs", 1, "runs per set for -selfcheck, each with another seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds and -runs must be positive")
		return 2
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, quick: *quick, workDir: *workDir}
	if *selfcheck {
		return selfCheck(stderr, *workload, cfg, *runs)
	}
	def, ok := findWorkload(*workload)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *workload, workloadNames())
		return 2
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(cfg.workDir, fmt.Sprintf("trace-%s-%d.json", def.name, cfg.seed))
	}

	// Everything a workload waits on derives from this context, so a
	// wedged run is a failed run within its time budget, never a hang.
	ctx, cancel := context.WithTimeout(context.Background(), runBudget(cfg, *trace != 0))
	defer cancel()

	hdr := hostHeader()
	fmt.Fprintf(stderr, "codbench %s seed=%d seconds=%g trace=%d quick=%v | nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n",
		def.name, cfg.seed, cfg.seconds, *trace, cfg.quick, hdr.NProc, hdr.GOMAXPROCS, hdr.Go, hdr.CPU, hdr.Commit)

	var (
		res *result
		err error
	)
	if *trace != 0 {
		res, err = tracedRun(ctx, stderr, def, cfg, hdr, *traceOut)
	} else {
		res, err = untracedRun(ctx, stderr, def, cfg, time.Since(start))
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", def.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runBudget bounds a whole invocation: the measuring time, doubled for a
// traced invocation (which also runs the untraced reference), plus room
// for set-up, the probe suite and teardown.
func runBudget(cfg runConfig, traced bool) time.Duration {
	n := 1.5
	if traced {
		n = 3
	}
	return cfg.share(n) + time.Minute
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

func workloadNames() string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.name
	}
	return strings.Join(names, ", ")
}

// untracedRun measures the end-to-end metrics. preamble is the time from
// process start to here, charged to set-up.
func untracedRun(ctx context.Context, stderr io.Writer, def workloadDef, cfg runConfig, preamble time.Duration) (*result, error) {
	out, err := def.run(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	res := newResult(out)
	res.put(endToEnd, map[string]float64{
		"setup_s":         preamble.Seconds() + median(out.setup),
		"peak_rss_mb":     peakRSSMB(),
		"primary_per_s":   out.primary,
		"secondary_per_s": out.secondary,
		"cpu_us_per_op":   perOp(out.timed.cpu.Seconds()*1e6, out.cpuOps),
	})
	report(stderr, def, out, res, endToEnd)
	return res, nil
}

// tracedRun produces the per-layer metrics and the span file. It first
// runs the workload untraced as the reference for the tracing overhead —
// end-to-end metrics are never taken from a traced run.
func tracedRun(ctx context.Context, stderr io.Writer, def workloadDef, cfg runConfig, hdr header, spanPath string) (*result, error) {
	ref, err := def.run(ctx, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("untraced reference: %w", err)
	}
	tr := newTracer()
	tr.root = tr.begin(0, def.name, "workload")
	out, err := def.run(ctx, cfg, tr)
	tr.end(tr.root)
	if err != nil {
		return nil, err
	}
	out.ops += ref.ops
	out.failed += ref.failed
	out.errs = append(ref.errs, out.errs...)

	layer := out.layer
	layer["proc.cpu_s"] = out.timed.cpu.Seconds()
	layer["proc.allocs_per_op"] = perOp(float64(out.timed.mallocs), out.cpuOps)
	layer["proc.gc_pause_ms"] = out.timed.gcPause.Seconds() * 1e3
	if out.primary > 0 {
		layer["proc.trace_overhead_ratio"] = ref.primary/out.primary - 1
	}
	if err := runProbes(ctx, cfg, tr, layer); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	spans := tr.snapshot()
	if err := writeSpans(spanPath, hdr, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(stderr, "span file: %s (%d spans)\n", spanPath, len(spans))
	spanSummary(stderr, spans)

	res := newResult(out)
	res.put(perLayer, layer)
	report(stderr, def, out, res, perLayer)
	return res, nil
}

func perOp(total float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return total / float64(ops)
}

func newResult(out *outcome) *result {
	return &result{
		Correct:   out.failed == 0 && out.ops > 0,
		Attempted: max(out.ops, 1),
		Failed:    out.failed,
		Metrics:   make(map[string]metricVal),
	}
}

// put fills the result with exactly the metrics of defs: a value the
// workload did not produce is that layer doing nothing here, reported 0.
func (r *result) put(defs []metricDef, vals map[string]float64) {
	for _, d := range defs {
		r.Metrics[d.name] = metricVal{Value: vals[d.name], Unit: d.unit}
	}
}

// report prints the human-readable result: every metric by name with its
// unit, in definition order, then the op count and what failed.
func report(w io.Writer, def workloadDef, out *outcome, res *result, defs []metricDef) {
	fmt.Fprintf(w, "  primary   = %s\n  secondary = %s\n", def.primary, def.secondary)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "  ops=%d failed=%d\n", out.ops, out.failed)
	for _, e := range out.errs {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}
