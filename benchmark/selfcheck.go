package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// selfCheck is the A/A gate: it runs each chosen workload in two sets of
// `runs` fresh processes (seeds seed, seed+1, ...; the same seeds in both
// sets) and fails if, for any end-to-end metric, the second set's median
// is worse than the first's by more than the metric's bound, or — set-up
// time aside — either set's interquartile spread exceeds the bound. A
// benchmark that cannot pass this on unchanged code cannot judge a change.
func selfCheck(stderr io.Writer, workloads string, cfg runConfig, runs int) int {
	var defs []workloadDef
	if workloads == "" || workloads == "all" {
		defs = workloadDefs
	} else {
		for _, name := range strings.Split(workloads, ",") {
			d, ok := findWorkload(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", name, workloadNames())
				return 2
			}
			defs = append(defs, d)
		}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: selfcheck: %v\n", err)
		return 1
	}
	hdr := hostHeader()
	fmt.Fprintf(stderr, "codbench selfcheck runs=%d seconds=%g | nproc=%d GOMAXPROCS=%d %s cpu=%q commit=%s\n",
		runs, cfg.seconds, hdr.NProc, hdr.GOMAXPROCS, hdr.Go, hdr.CPU, hdr.Commit)

	failed := false
	for _, def := range defs {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = make(map[string][]float64)
			for r := 0; r < runs; r++ {
				res, err := runChild(self, def.name, cfg, cfg.seed+int64(r))
				if err != nil {
					fmt.Fprintf(stderr, "benchmark: selfcheck: %s set %d run %d: %v\n", def.name, s+1, r+1, err)
					return 1
				}
				for name, m := range res.Metrics {
					sets[s][name] = append(sets[s][name], m.Value)
				}
			}
		}
		fmt.Fprintf(stderr, "%s\n  %-18s %14s %14s %9s %9s %9s %7s\n", def.name,
			"metric", "median A", "median B", "worse", "spread A", "spread B", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.name], sets[1][d.name]
			worse := worsening(d, median(a), median(b))
			verdict := "ok"
			if worse > d.bound || (d.name != "setup_s" && max(spread(a), spread(b)) > d.bound) {
				verdict, failed = "FAIL", true
			}
			fmt.Fprintf(stderr, "  %-18s %14.6g %14.6g %8.2f%% %8.2f%% %8.2f%% %6.0f%% %s\n", d.name,
				median(a), median(b), 100*worse, 100*spread(a), 100*spread(b), 100*d.bound, verdict)
		}
		// Every run made, in run order, so a drift or an outlier is visible.
		for _, d := range endToEnd {
			fmt.Fprintf(stderr, "  %-18s A %s\n  %-18s B %s\n", d.name, fmtRuns(sets[0][d.name]), "", fmtRuns(sets[1][d.name]))
		}
	}
	if failed {
		return 1
	}
	return 0
}

func fmtRuns(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.FormatFloat(v, 'g', 5, 64)
	}
	return strings.Join(parts, " ")
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runChild runs one untraced workload in a fresh process — set-up time,
// peak memory and caches all start from zero, as they do for the driver —
// and parses the result line.
func runChild(self, workload string, cfg runConfig, seed int64) (*result, error) {
	args := []string{
		"-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-work-dir", cfg.workDir, "-trace", "0",
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(self, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	return &res, nil
}
