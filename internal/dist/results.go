package dist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"codsim/internal/sim"
)

// Record is one scenario run's persisted outcome: the JSON-lines row the
// batch layers write for every job, local or distributed. One line per
// run keeps result files append-only and diffable across sweeps.
type Record struct {
	Job      int64  `json:"job"`
	Attempt  int64  `json:"attempt,omitempty"`
	Scenario string `json:"scenario"`
	Title    string `json:"title,omitempty"`
	Seed     int64  `json:"seed,omitempty"`
	// Worker names the worker that flew the job. It is empty, like
	// Attempt, for a job the coordinator answered from its certification —
	// its dry-run cold, its verdict-cache row's answer warm — without
	// dispatching it (see Coordinator.RunStream).
	Worker string  `json:"worker,omitempty"`
	Passed bool    `json:"passed"`
	Score  float64 `json:"score"`
	Phase  string  `json:"phase"`
	SimSec float64 `json:"sim_sec"`
	// WallSec is the run's wall-clock seconds on its worker. A job
	// answered from its certification, which no worker ran, reports the
	// seconds its coordinator took to take the answer (trace.Take), so a
	// campaign's dist.run_ms falls with it; an audited job flies and
	// reports its flight.
	WallSec float64 `json:"wall_sec"`
	// Alarms is the instructor-side misconduct count of the run: alarm
	// lamps lit (safety alarms plus collisions) across every crane.
	Alarms int64  `json:"alarms,omitempty"`
	Err    string `json:"err,omitempty"`
	// Span is the job's trace span ID; QueueMS is the coordinator-side
	// load→grant wait and DispatchMS the worker-side grant→run-start
	// latency of the attempt that produced this record. All three are absent from
	// a record made outside a dist sweep (NewRecord of a sim.RunBatch run).
	Span       string  `json:"span,omitempty"`
	QueueMS    float64 `json:"queue_ms,omitempty"`
	DispatchMS float64 `json:"dispatch_ms,omitempty"`
}

// NewRecord converts one sim.BatchResult into its persisted form.
func NewRecord(job Job, res sim.BatchResult, worker string) Record {
	r := Record{
		Job:      job.ID,
		Scenario: res.Scenario,
		Title:    res.Title,
		Seed:     job.Seed,
		Worker:   worker,
		Passed:   res.Passed,
		Score:    res.State.Score,
		Phase:    res.State.Phase.String(),
		SimSec:   res.State.Elapsed,
		WallSec:  res.Wall.Seconds(),
		Alarms:   int64(res.Alarms),
	}
	if res.Err != nil {
		r.Err = res.Err.Error()
	}
	return r
}

// WriteRecords appends the records to w, one JSON object per line.
func WriteRecords(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode terminates each record with \n
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("dist: encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadRecords parses a JSON-lines result stream; blank lines are skipped.
func ReadRecords(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec Record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("dist: results line %d: %w", line, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dist: read results: %w", err)
	}
	return recs, nil
}

// marshalRecord / unmarshalRecord are the dist protocol's result payload
// codec — the same JSON one Record occupies as a line of a result file.
func marshalRecord(rec Record) ([]byte, error) { return json.Marshal(rec) }

func unmarshalRecord(data []byte, rec *Record) error { return json.Unmarshal(data, rec) }

// LoadRecords reads a JSON-lines result file.
func LoadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	defer f.Close()
	recs, err := ReadRecords(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}

// SaveRecords writes a JSON-lines result file, replacing any previous one.
func SaveRecords(path string, recs []Record) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	if err := WriteRecords(f, recs); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// Stats are nearest-rank percentiles over one metric of a record group.
type Stats struct {
	P50, P90, P99 float64
}

// statsOf computes nearest-rank percentiles; the zero Stats for no data.
func statsOf(vals []float64) Stats {
	if len(vals) == 0 {
		return Stats{}
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.999999) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return Stats{P50: rank(0.50), P90: rank(0.90), P99: rank(0.99)}
}

// Group aggregates the records of one scenario (or of a whole sweep).
type Group struct {
	Scenario string // empty for the sweep-wide total
	Runs     int
	Passed   int
	Errors   int
	Alarms   int64 // instructor alarm lamps lit, summed over the runs
	Score    Stats // final score percentiles
	Wall     Stats // wall-clock seconds percentiles
	Sim      Stats // simulated seconds percentiles
	Dispatch Stats // dispatch-latency (ms) percentiles, dist sweeps only
}

// PassRate returns the group's pass fraction in [0, 1].
func (g Group) PassRate() float64 {
	if g.Runs == 0 {
		return 0
	}
	return float64(g.Passed) / float64(g.Runs)
}

// passPercent is the pass rate in whole percent, rounded down, so a
// sweep with a failed run never reads 100%.
func (g Group) passPercent() int {
	if g.Runs == 0 {
		return 0
	}
	return g.Passed * 100 / g.Runs
}

// Report aggregates a result set: per-scenario groups plus the sweep-wide
// total, the analytics layer over repeated sweeps.
type Report struct {
	Total     Group
	Scenarios []Group // sorted by scenario name
}

// BuildReport groups records by scenario and computes pass rates and
// score/duration percentiles.
func BuildReport(recs []Record) Report {
	byName := make(map[string][]Record)
	for _, r := range recs {
		byName[r.Scenario] = append(byName[r.Scenario], r)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)

	rep := Report{Total: groupOf("", recs)}
	for _, n := range names {
		rep.Scenarios = append(rep.Scenarios, groupOf(n, byName[n]))
	}
	return rep
}

func groupOf(name string, recs []Record) Group {
	g := Group{Scenario: name, Runs: len(recs)}
	scores := make([]float64, 0, len(recs))
	walls := make([]float64, 0, len(recs))
	sims := make([]float64, 0, len(recs))
	var disp []float64
	for _, r := range recs {
		if r.Passed {
			g.Passed++
		}
		if r.Err != "" {
			g.Errors++
		}
		g.Alarms += r.Alarms
		scores = append(scores, r.Score)
		walls = append(walls, r.WallSec)
		sims = append(sims, r.SimSec)
		// Only dist records carry dispatch latency; records made outside
		// a dist sweep must not drag the percentiles to zero.
		if r.DispatchMS > 0 || r.Span != "" {
			disp = append(disp, r.DispatchMS)
		}
	}
	g.Score = statsOf(scores)
	g.Wall = statsOf(walls)
	g.Sim = statsOf(sims)
	g.Dispatch = statsOf(disp)
	return g
}

// WriteReport renders the aggregate table. The dispatch-latency column
// only appears when some record carried it — records made outside a dist
// sweep keep the narrow table.
func WriteReport(w io.Writer, rep Report) {
	withDispatch := rep.Total.Dispatch != Stats{}
	fmt.Fprintf(w, "%-18s %5s %6s %7s %7s  %-17s %-17s",
		"SCENARIO", "RUNS", "PASS%", "ERRORS", "ALARMS", "SCORE p50/90/99", "WALL-S p50/90/99")
	if withDispatch {
		fmt.Fprintf(w, " %-13s", "DISP-MS p50/99")
	}
	fmt.Fprintln(w)
	line := func(g Group) {
		fmt.Fprintf(w, "%-18s %5d %5d%% %7d %7d  %5.1f/%5.1f/%5.1f %5.1f/%5.1f/%5.1f",
			g.Scenario, g.Runs, g.passPercent(), g.Errors, g.Alarms,
			g.Score.P50, g.Score.P90, g.Score.P99,
			g.Wall.P50, g.Wall.P90, g.Wall.P99)
		if withDispatch {
			fmt.Fprintf(w, " %6.1f/%6.1f", g.Dispatch.P50, g.Dispatch.P99)
		}
		fmt.Fprintln(w)
	}
	for _, g := range rep.Scenarios {
		line(g)
	}
	total := rep.Total
	total.Scenario = "TOTAL"
	line(total)
}

// Regression is one scenario whose results got worse between two sweeps.
type Regression struct {
	Scenario string
	Reason   string
}

// scoreTolerance is how far a scenario's p50 score may drop between
// sweeps before Compare flags it: half a bar-hit deduction, enough slack
// for overtime jitter but not for a new collision.
const scoreTolerance = 5.0

// Compare diffs two result sets by scenario and reports regressions: a
// lower pass rate, or a p50 score drop beyond scoreTolerance. Scenarios
// present in only one set are skipped — a changed selection is not a
// regression.
func Compare(old, cur []Record) []Regression {
	oldRep := BuildReport(old)
	curRep := BuildReport(cur)
	oldBy := make(map[string]Group, len(oldRep.Scenarios))
	for _, g := range oldRep.Scenarios {
		oldBy[g.Scenario] = g
	}
	var regs []Regression
	for _, g := range curRep.Scenarios {
		o, ok := oldBy[g.Scenario]
		if !ok {
			continue
		}
		if g.PassRate() < o.PassRate() {
			regs = append(regs, Regression{
				Scenario: g.Scenario,
				Reason: fmt.Sprintf("pass rate %d/%d → %d/%d",
					o.Passed, o.Runs, g.Passed, g.Runs),
			})
			continue
		}
		if g.Score.P50 < o.Score.P50-scoreTolerance {
			regs = append(regs, Regression{
				Scenario: g.Scenario,
				Reason: fmt.Sprintf("p50 score %.1f → %.1f",
					o.Score.P50, g.Score.P50),
			})
		}
	}
	return regs
}

// WriteCompare renders the regression diff and returns how many scenarios
// regressed (nonzero means the new sweep is worse).
func WriteCompare(w io.Writer, old, cur []Record) int {
	regs := Compare(old, cur)
	if len(regs) == 0 {
		fmt.Fprintf(w, "no regressions across %d scenarios\n", len(BuildReport(cur).Scenarios))
		return 0
	}
	for _, r := range regs {
		fmt.Fprintf(w, "REGRESSION %-18s %s\n", r.Scenario, r.Reason)
	}
	return len(regs)
}
