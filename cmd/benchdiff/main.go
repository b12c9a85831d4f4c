// Command benchdiff compares a `go test -bench` run against the repo's
// BENCH_baseline.json and reports allocation regressions. ns/op on shared
// CI runners is noise, so absolute timing is never judged; allocs/op (and
// bytes/op where a ceiling is set) is the stable signal. Most benchmarks
// are compared warn-only, but entries carrying a "max_allocs_per_op" or
// "max_bytes_per_op" ceiling in the baseline — the BenchmarkCBRouting*
// hot paths — are gating: a run above a ceiling exits nonzero, which
// turns "the CB hot path gained three allocations" from an archaeology
// project into a failed CI step.
//
// Time is judged only as a ratio between two rows of the same run, which
// a busy host slows together: an entry carrying "ns_ratio_to" (a partner
// benchmark's name) and "max_ns_ratio" fails the run when its minimum
// ns/op over every line the run holds for it exceeds max_ns_ratio times
// the partner's minimum. Run such rows with -count 5 or more so the
// minimum is a quiet reading.
//
//	go test -bench . -benchtime 1x -run '^$' . > bench.txt
//	go run ./cmd/benchdiff BENCH_baseline.json bench.txt
//
// With -update the baseline file is rewritten in place from the run:
// measured numbers (iterations, ns/op, bytes/op, allocs/op, fps) refresh,
// ns/op as the least over the run's lines for the row, so a -count row
// records its quiet reading; ceilings and entries missing from the run
// are preserved verbatim.
//
//	go run ./cmd/benchdiff -update BENCH_baseline.json bench.txt
//
// Only benchmarks present in both inputs are compared.
//
// With -snapshot it summarizes end-to-end codbench pairs instead. Each
// input holds one side's runs, parent then change, in the order they were
// run alternately: codbench's combined output (its "codbench …" header
// line and its last stdout line, the result object) appended run after
// run. Run i of one side pairs with run i of the other. The file written
// holds, per workload and side, n, median, q1 and q3 of the five
// end-to-end metrics, the pairs the change won on each, the attempted and
// failed op counts, and each side's commit and host. The commit is the one
// codbench was built from: build it with go build in a clean checkout of
// each side, as go run reports "unknown".
//
//	./codbench-parent -workload fed_exam -seed 81 >>parent.txt 2>&1
//	go run ./cmd/benchdiff -snapshot BENCH_<pr>.json parent.txt change.txt
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// baseline mirrors BENCH_baseline.json.
type baseline struct {
	Description string           `json:"description"`
	Recorded    string           `json:"recorded"`
	GoOsArch    string           `json:"go_os_arch"`
	CPU         string           `json:"cpu"`
	Note        string           `json:"note"`
	Benchmarks  []baselineResult `json:"benchmarks"`
}

type baselineResult struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	MaxAllocs   int64   `json:"max_allocs_per_op"`
	MaxBytes    float64 `json:"max_bytes_per_op"`
	FPS         float64 `json:"fps"`
	NsRatioTo   string  `json:"ns_ratio_to"`
	MaxNsRatio  float64 `json:"max_ns_ratio"`
	HasBytes    bool    `json:"-"`
	HasAllocs   bool    `json:"-"`
	HasMax      bool    `json:"-"`
	HasMaxBytes bool    `json:"-"`
	HasFPS      bool    `json:"-"`
	HasRatio    bool    `json:"-"`
}

// UnmarshalJSON remembers which optional fields were present: entries
// recorded without -benchmem report nothing to compare against, and only
// entries with an explicit ceiling gate.
func (r *baselineResult) UnmarshalJSON(b []byte) error {
	type plain baselineResult
	if err := json.Unmarshal(b, (*plain)(r)); err != nil {
		return err
	}
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(b, &probe); err != nil {
		return err
	}
	_, r.HasBytes = probe["bytes_per_op"]
	_, r.HasAllocs = probe["allocs_per_op"]
	_, r.HasMax = probe["max_allocs_per_op"]
	_, r.HasMaxBytes = probe["max_bytes_per_op"]
	_, r.HasFPS = probe["fps"]
	_, r.HasRatio = probe["max_ns_ratio"]
	if r.HasRatio && r.NsRatioTo == "" {
		return fmt.Errorf("%s: max_ns_ratio without ns_ratio_to", r.Name)
	}
	return nil
}

// fields returns the entry's key/value lines in the baseline file's
// canonical order, omitting the optional ones that were never present —
// so a -update round-trip produces minimal diffs against the
// hand-maintained file.
func (r baselineResult) fields() []string {
	out := []string{
		fmt.Sprintf(`"name": %s`, jsonString(r.Name)),
		fmt.Sprintf(`"iterations": %d`, r.Iterations),
		fmt.Sprintf(`"ns_per_op": %s`, jsonFloat(r.NsPerOp)),
	}
	if r.HasBytes {
		out = append(out, fmt.Sprintf(`"bytes_per_op": %s`, jsonFloat(r.BytesPerOp)))
	}
	if r.HasAllocs {
		out = append(out, fmt.Sprintf(`"allocs_per_op": %d`, r.AllocsPerOp))
	}
	if r.HasMax {
		out = append(out, fmt.Sprintf(`"max_allocs_per_op": %d`, r.MaxAllocs))
	}
	if r.HasMaxBytes {
		out = append(out, fmt.Sprintf(`"max_bytes_per_op": %s`, jsonFloat(r.MaxBytes)))
	}
	if r.HasFPS {
		out = append(out, fmt.Sprintf(`"fps": %s`, jsonFloat(r.FPS)))
	}
	if r.HasRatio {
		out = append(out, fmt.Sprintf(`"ns_ratio_to": %s`, jsonString(r.NsRatioTo)),
			fmt.Sprintf(`"max_ns_ratio": %s`, jsonFloat(r.MaxNsRatio)))
	}
	return out
}

func jsonString(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// jsonFloat formats like the hand-written baseline: whole values keep a
// trailing ".0", fractional ones print at full precision.
func jsonFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatFloat(v, 'f', 1, 64)
	}
	return strconv.FormatFloat(v, 'f', -1, 64)
}

type runResult struct {
	iters    int64
	ns       float64 // the least ns/op over every line of the benchmark
	bytes    float64
	allocs   int64
	fps      float64
	hasBytes bool
	hasAll   bool
	hasFPS   bool
}

// parseRun reads `go test -bench` output. A result line is the benchmark
// name, the iteration count, then (value, unit) pairs — "ns/op", "B/op",
// "allocs/op", plus any b.ReportMetric units ("fps", "frames/s", ...). The
// last line of a benchmark wins, except ns/op, which is the least of them
// all.
func parseRun(path string) (map[string]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]runResult)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := runResult{iters: iters}
		sawNs := false
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			switch fields[i+1] {
			case "ns/op":
				r.ns, sawNs = v, true
			case "B/op":
				r.bytes, r.hasBytes = v, true
			case "allocs/op":
				r.allocs, r.hasAll = int64(v), true
			case "fps":
				r.fps, r.hasFPS = v, true
			}
		}
		if sawNs {
			if prev, ok := out[fields[0]]; ok {
				r.ns = math.Min(prev.ns, r.ns)
			}
			out[fields[0]] = r
		}
	}
	return out, sc.Err()
}

// procSuffix matches the "-GOMAXPROCS" tail go test appends to benchmark
// names when GOMAXPROCS > 1.
var procSuffix = regexp.MustCompile(`-\d+$`)

// lookup resolves a baseline benchmark name in a run: exact first (the
// GOMAXPROCS=1 form the baseline records), then with one "-N" proc
// suffix appended — the only stripping that is unambiguous, because the
// baseline name anchors where the real name ends.
func lookup(run map[string]runResult, name string) (runResult, bool) {
	if r, ok := run[name]; ok {
		return r, true
	}
	for k, r := range run {
		if strings.HasPrefix(k, name+"-") && procSuffix.MatchString(k) && procSuffix.ReplaceAllString(k, "") == name {
			return r, true
		}
	}
	return runResult{}, false
}

func main() {
	update := flag.Bool("update", false, "rewrite the baseline file from the run (ceilings preserved)")
	snap := flag.String("snapshot", "", "write codbench pairs to this file: benchdiff -snapshot BENCH_<pr>.json parent.txt change.txt")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-update] BENCH_baseline.json bench-output.txt")
		fmt.Fprintln(os.Stderr, "       benchdiff -snapshot BENCH_<pr>.json parent-codbench.txt change-codbench.txt")
	}
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	if *snap != "" {
		if err := writeSnapshot(*snap, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff: snapshot:", err)
			os.Exit(2)
		}
		return
	}
	basePath, runPath := flag.Arg(0), flag.Arg(1)
	raw, err := os.ReadFile(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff: baseline:", err)
		os.Exit(2)
	}
	run, err := parseRun(runPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	if *update {
		if err := writeBaseline(basePath, &base, run); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff: update:", err)
			os.Exit(2)
		}
		return
	}

	warned := 0
	failed := 0
	compared := 0
	fmt.Printf("%-40s %14s %14s  %s\n", "BENCHMARK", "ALLOCS/OP", "BASELINE", "VERDICT")
	for _, b := range base.Benchmarks {
		cur, ok := lookup(run, b.Name)
		if !ok || !b.HasAllocs || !cur.hasAll {
			if b.HasMax || b.HasMaxBytes {
				// A gated benchmark that silently vanishes from the run
				// would ungate itself; keep the hole visible in the log.
				fmt.Printf("%-40s %14s %14d  gated benchmark missing from run\n", b.Name, "-", b.AllocsPerOp)
			}
			continue
		}
		compared++
		verdict := "ok"
		switch {
		case b.HasMax && cur.allocs > b.MaxAllocs:
			verdict = fmt.Sprintf("FAIL +%d over the %d allocs/op ceiling (bytes %0.f→%0.f)",
				cur.allocs-b.MaxAllocs, b.MaxAllocs, b.BytesPerOp, cur.bytes)
			failed++
		case b.HasMaxBytes && cur.hasBytes && cur.bytes > b.MaxBytes:
			verdict = fmt.Sprintf("FAIL %0.f B/op over the %0.f B/op ceiling", cur.bytes, b.MaxBytes)
			failed++
		case b.HasMax && b.HasMaxBytes:
			verdict = fmt.Sprintf("ok (gated ≤ %d allocs, ≤ %0.f B)", b.MaxAllocs, b.MaxBytes)
		case b.HasMax:
			verdict = fmt.Sprintf("ok (gated ≤ %d)", b.MaxAllocs)
		case cur.allocs > b.AllocsPerOp:
			verdict = fmt.Sprintf("WARN +%d allocs/op (bytes %0.f→%0.f)",
				cur.allocs-b.AllocsPerOp, b.BytesPerOp, cur.bytes)
			warned++
		case cur.allocs < b.AllocsPerOp:
			verdict = fmt.Sprintf("improved −%d allocs/op", b.AllocsPerOp-cur.allocs)
		}
		fmt.Printf("%-40s %14d %14d  %s\n", b.Name, cur.allocs, b.AllocsPerOp, verdict)
	}
	failed += compareRatios(base.Benchmarks, run)
	switch {
	case compared == 0:
		fmt.Println("benchdiff: no comparable benchmarks (run with -benchmem or b.ReportAllocs)")
	case failed > 0:
		fmt.Printf("benchdiff: failed gates: %d (allocation, bytes or time-ratio ceiling)\n", failed)
	case warned > 0:
		fmt.Printf("benchdiff: %d of %d benchmarks allocate more than the baseline (warn-only)\n", warned, compared)
	default:
		fmt.Printf("benchdiff: %d benchmarks at or below the allocation baseline\n", compared)
	}
	if failed > 0 {
		os.Exit(1)
	}
}

// compareRatios prints every time-ratio gate and returns how many failed.
// Like a gated alloc row, a gate whose row or partner is missing from the
// run is printed as a hole rather than skipped.
func compareRatios(rows []baselineResult, run map[string]runResult) (failed int) {
	header := false
	for _, b := range rows {
		if !b.HasRatio {
			continue
		}
		if !header {
			fmt.Printf("\n%-40s %14s %14s  %s\n", "BENCHMARK", "MIN NS/OP", "PARTNER MIN", "TIME RATIO")
			header = true
		}
		cur, ok := lookup(run, b.Name)
		ref, refOK := lookup(run, b.NsRatioTo)
		if !ok || !refOK {
			fmt.Printf("%-40s %14s %14s  ratio-gated pair missing from run (partner %s)\n", b.Name, "-", "-", b.NsRatioTo)
			continue
		}
		ratio := cur.ns / ref.ns
		verdict := fmt.Sprintf("ok %.2f× %s (gated ≤ %.2f×)", ratio, b.NsRatioTo, b.MaxNsRatio)
		if !(ratio <= b.MaxNsRatio) {
			verdict = fmt.Sprintf("FAIL %.2f× %s, over the %.2f× ceiling", ratio, b.NsRatioTo, b.MaxNsRatio)
			failed++
		}
		fmt.Printf("%-40s %14.1f %14.1f  %s\n", b.Name, cur.ns, ref.ns, verdict)
	}
	return failed
}

// writeBaseline refreshes base's measured numbers from run and rewrites
// the file. Ceilings (max_allocs_per_op, max_bytes_per_op, ns_ratio_to
// with max_ns_ratio) and entries the run did not exercise are preserved
// verbatim, so -update cannot silently loosen a gate.
func writeBaseline(path string, base *baseline, run map[string]runResult) error {
	updated := 0
	for i := range base.Benchmarks {
		b := &base.Benchmarks[i]
		cur, ok := lookup(run, b.Name)
		if !ok {
			continue
		}
		b.Iterations = cur.iters
		b.NsPerOp = cur.ns
		if cur.hasBytes {
			b.BytesPerOp, b.HasBytes = cur.bytes, true
		}
		if cur.hasAll {
			b.AllocsPerOp, b.HasAllocs = cur.allocs, true
		}
		if cur.hasFPS {
			b.FPS, b.HasFPS = cur.fps, true
		}
		updated++
	}
	base.Recorded = time.Now().Format("2006-01-02")

	var out bytes.Buffer
	out.WriteString("{\n")
	fmt.Fprintf(&out, "  %q: %s,\n", "description", jsonString(base.Description))
	fmt.Fprintf(&out, "  %q: %s,\n", "recorded", jsonString(base.Recorded))
	fmt.Fprintf(&out, "  %q: %s,\n", "go_os_arch", jsonString(base.GoOsArch))
	fmt.Fprintf(&out, "  %q: %s,\n", "cpu", jsonString(base.CPU))
	fmt.Fprintf(&out, "  %q: %s,\n", "note", jsonString(base.Note))
	out.WriteString("  \"benchmarks\": [\n")
	for i, b := range base.Benchmarks {
		out.WriteString("    {\n      ")
		out.WriteString(strings.Join(b.fields(), ",\n      "))
		out.WriteString("\n    }")
		if i < len(base.Benchmarks)-1 {
			out.WriteString(",")
		}
		out.WriteString("\n")
	}
	out.WriteString("  ]\n}\n")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchdiff: refreshed %d of %d baseline entries in %s\n",
		updated, len(base.Benchmarks), path)
	return nil
}
