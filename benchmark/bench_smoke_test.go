package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeArgs runs a workload at smoke size: the same code paths and output
// checks as a full run, a fraction of a second of measuring.
func smokeArgs(t *testing.T, workload string, extra ...string) []string {
	return append([]string{
		"-workload", workload, "-seed", "7", "-seconds", "0.6", "-quick",
		"-work-dir", t.TempDir(),
	}, extra...)
}

// TestSmokeUntraced runs every workload through the command's own entry
// point and checks the result line: correct, no failed op, and exactly
// the end-to-end metrics, none of them zero.
func TestSmokeUntraced(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(smokeArgs(t, def.name, "-trace", "0"), &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("result line %q: %v", lines[len(lines)-1], err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics printed, want the %d end-to-end ones", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("%s = %+v (present %v), want a positive value in %s", d.name, m, ok, d.unit)
				}
			}
		})
	}
}

// TestSmokeTraced runs every workload with spans on and checks that the
// layers it exercises produced their metrics and a well-formed span tree.
func TestSmokeTraced(t *testing.T) {
	exercised := map[string][]string{
		"fed_exam":   {"sim.boot_ms", "sim.state_rate_ratio", "displaysync.swaps", "cb.updates_per_sim_s", "cb.channels_up"},
		"campaign":   {"gen.oracle_ms", "gen.cache_hits", "gen.emit_ratio", "gen.cache_bytes", "dist.run_ms", "dist.slot_busy_ratio", "dist.spec_json_bytes", "cb.updates"},
		"dist_sweep": {"dist.queue_ms", "dist.dispatch_ms", "dist.run_ms", "dist.ack_ms", "dist.attempts_per_job", "cb.credits_granted"},
		"cb_stream":  {"cb.rtt_p50_us", "cb.rtt_p99_us", "cb.conflate_ratio", "cb.conflate_pub_per_s", "cb.credits_granted"},
	}
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			cfg := runConfig{seed: 7, seconds: 0.6, quick: true, workDir: t.TempDir()}
			tr := newTracer()
			tr.root = tr.begin(0, def.name, "workload")
			out, err := def.run(ctx, cfg, tr)
			tr.end(tr.root)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.ops < 1 {
				t.Errorf("ops=%d failed=%d: %v", out.ops, out.failed, out.errs)
			}
			for _, name := range exercised[def.name] {
				if out.layer[name] <= 0 {
					t.Errorf("%s = %v, want a positive value from this workload", name, out.layer[name])
				}
			}
			known := make(map[string]bool)
			for _, d := range perLayer {
				known[d.name] = true
			}
			for name := range out.layer {
				if !known[name] {
					t.Errorf("workload wrote %s, which perLayer does not define", name)
				}
			}

			spans := tr.snapshot()
			phases := 0
			for _, s := range spans {
				if s.End < s.Start {
					t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
				if s.ID != tr.root && (s.Parent < 1 || s.Parent > len(spans)) {
					t.Fatalf("span %d (%s) has no parent", s.ID, s.Name)
				}
				if s.Layer == "phase" && s.Parent == tr.root {
					phases++
				}
			}
			if phases == 0 {
				t.Error("no phase span under the workload span")
			}
			path := filepath.Join(cfg.workDir, "spans.json")
			if err := writeSpans(path, hostHeader(), spans); err != nil {
				t.Fatal(err)
			}
			var file struct {
				Header header `json:"header"`
				Spans  []span `json:"spans"`
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &file); err != nil || len(file.Spans) != len(spans) || file.Header.NProc < 1 {
				t.Errorf("span file: %v, %d of %d spans, header %+v", err, len(file.Spans), len(spans), file.Header)
			}
		})
	}
}

// TestProbesFillEveryProbeMetric runs the probe suite once: every metric
// no workload produces must come out of it, positive.
func TestProbesFillEveryProbeMetric(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	l := make(map[string]float64)
	tr := newTracer()
	if err := runProbes(ctx, runConfig{seed: 7, seconds: 0.6, quick: true, workDir: t.TempDir()}, tr, l); err != nil {
		t.Fatal(err)
	}
	known := make(map[string]bool)
	for _, d := range perLayer {
		known[d.name] = true
	}
	for name, v := range l {
		if !known[name] {
			t.Errorf("probe wrote %s, which perLayer does not define", name)
		}
		if v <= 0 {
			t.Errorf("%s = %v, want a positive value", name, v)
		}
	}
	for _, want := range []string{"render.frame_ms", "lp.pace_ratio", "wire.frame_bytes", "transport.udp_rtt_us",
		"cod.codec_ns", "cb.blob_mb_per_s", "trace.parts_ratio", "collision.find_us", "dist.record_json_us"} {
		if _, ok := l[want]; !ok {
			t.Errorf("probe suite never wrote %s", want)
		}
	}
	if r := l["trace.parts_ratio"]; r < 0.5 || r > 1.5 {
		t.Errorf("trace.parts_ratio = %v: the parts should sum to about the whole", r)
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the driver
// reads, in step with the tables the command reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var file struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		t.Fatal(err)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitOK := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	checkName := func(name string) {
		if !nameOK.MatchString(name) || seen[name] {
			t.Errorf("name %q is malformed or used twice", name)
		}
		seen[name] = true
	}

	if len(file.Workloads) != len(workloadDefs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(file.Workloads), len(workloadDefs))
	}
	for i, w := range file.Workloads {
		checkName(w.Name)
		if w.Name != workloadDefs[i].name || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a one-line why", i, w.Name, len(w.Why), workloadDefs[i].name)
		}
	}
	compare := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in the command", len(got), kind, len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			d := want[i]
			if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || !unitOK.MatchString(m.Unit) {
				t.Errorf("%s metric %d: %+v, want %s in %s, %s is better", kind, i, m, d.name, d.unit, d.better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.bound || d.bound <= 0 || d.bound > 0.25):
				t.Errorf("%s: bound %v, want %v within (0, 0.25]", m.Name, m.Bound, d.bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: a per-layer metric has no bound", m.Name)
			}
		}
	}
	compare("end-to-end", file.EndToEnd, endToEnd, true)
	compare("per-layer", file.PerLayer, perLayer, false)
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	if len(file.Paths) != 1 || file.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", file.Paths)
	}
	if file.RunSeconds < 1 || file.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1..60", file.RunSeconds)
	}
}
