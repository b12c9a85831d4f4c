package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"codsim/internal/dist"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/sim"
	"codsim/internal/trace"
)

func TestParseCampaign(t *testing.T) {
	seed, count, err := parseCampaign("42:1000")
	if err != nil || seed != 42 || count != 1000 {
		t.Fatalf("42:1000 -> %d, %d, %v", seed, count, err)
	}
	if _, _, err := parseCampaign("-7: 25"); err != nil {
		t.Fatalf("negative seed with spaces: %v", err)
	}
	for _, bad := range []string{"", "7", "7:", ":5", "7:0", "7:-2", "x:5", "7:y"} {
		if _, _, err := parseCampaign(bad); err == nil {
			t.Errorf("parseCampaign(%q) accepted", bad)
		}
	}
}

// Re-running the same seed+params must reproduce the identical job list —
// IDs, candidate seeds, and spec bytes — even with the real oracle
// vetoing candidates in between.
func TestReproduceCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("expert dry-runs in -short")
	}
	ctx := context.Background()
	const count = 8
	a, sa, err := reproduceCampaign(ctx, 42, count, gen.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := reproduceCampaign(ctx, 42, count, gen.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if sa != sb {
		t.Fatalf("tallies differ: %+v vs %+v", sa, sb)
	}
	if len(a) != count || len(b) != count {
		t.Fatalf("job lists %d/%d, want %d", len(a), len(b), count)
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Seed != b[i].Seed {
			t.Fatalf("job %d: (%d,%d) vs (%d,%d)", i, a[i].ID, a[i].Seed, b[i].ID, b[i].Seed)
		}
		ja, err := scenario.MarshalSpec(a[i].Spec)
		if err != nil {
			t.Fatal(err)
		}
		jb, _ := scenario.MarshalSpec(b[i].Spec)
		if !bytes.Equal(ja, jb) {
			t.Fatalf("job %d: spec bytes differ between reruns", i)
		}
	}
}

// A campaign with a verdict cache must produce the byte-identical job
// list cold (flying every dry-run) and warm (replaying every verdict),
// with the warm rerun flying zero live dry-runs — the acceptance bar for
// "re-running a certified campaign costs file reads, not sim time".
func TestCampaignCacheColdWarmIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("expert dry-runs in -short")
	}
	ctx := context.Background()
	cr := campaignRun{
		seed:      42,
		count:     8,
		params:    gen.DefaultParams(),
		cachePath: filepath.Join(t.TempDir(), "verdicts.jsonl"),
	}
	cold, cs, err := replayCampaign(ctx, cr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if cs.OracleRuns == 0 || cs.CacheHits != 0 {
		t.Fatalf("cold tallies wrong: %+v", cs)
	}
	warm, ws, err := replayCampaign(ctx, cr, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ws.OracleRuns != 0 {
		t.Fatalf("warm rerun flew %d live dry-runs, want 0: %+v", ws.OracleRuns, ws)
	}
	if len(cold) != cr.count || len(warm) != cr.count {
		t.Fatalf("job lists %d/%d, want %d", len(cold), len(warm), cr.count)
	}
	for i := range cold {
		if cold[i].ID != warm[i].ID || cold[i].Seed != warm[i].Seed {
			t.Fatalf("job %d: (%d,%d) cold vs (%d,%d) warm", i, cold[i].ID, cold[i].Seed, warm[i].ID, warm[i].Seed)
		}
		jc, err := scenario.MarshalSpec(cold[i].Spec)
		if err != nil {
			t.Fatal(err)
		}
		jw, _ := scenario.MarshalSpec(warm[i].Spec)
		if !bytes.Equal(jc, jw) {
			t.Fatalf("job %d: spec bytes differ cold vs warm", i)
		}
	}
}

// The campaign param knobs must land in gen.Params, shift the campaign
// key, and reject out-of-range values.
func TestCampaignParams(t *testing.T) {
	base := gen.DefaultParams()
	p, err := campaignParams(base, 0.9, 0.1, 0.2, 0.3, "500:2000", "2:5", 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.WindProb != 0.9 || p.NightProb != 0.1 || p.TwoCraneProb != 0.2 || p.TandemProb != 0.3 {
		t.Fatalf("probabilities not applied: %+v", p)
	}
	if p.MinCargoMass != 500 || p.MaxCargoMass != 2000 || p.TandemMassCap < 2000 {
		t.Fatalf("mass band not applied: %+v", p)
	}
	if p.MinGates != 2 || p.MaxGates != 5 || p.MaxBars != 4 {
		t.Fatalf("gates/bars not applied: %+v", p)
	}
	if gen.Key(7, 10, base) == gen.Key(7, 10, p) {
		t.Fatal("campaign key ignores the param knobs")
	}

	type bad struct {
		wind, night, two, tandem float64
		mass, gates              string
		bars                     int
	}
	for _, b := range []bad{
		{wind: 1.5}, {night: -0.1}, {two: 2}, {tandem: -1},
		{mass: "0:100"}, {mass: "200:100"}, {mass: "junk"},
		{gates: "0:3"}, {gates: "3:2"}, {gates: "1.5:3"}, {gates: "junk"},
		{bars: -1},
	} {
		if _, err := campaignParams(base, b.wind, b.night, b.two, b.tandem, b.mass, b.gates, b.bars); err == nil {
			t.Errorf("campaignParams accepted %+v", b)
		}
	}
}

// A warm campaign whose audited verdict-cache row was edited fails
// -strict, and the error says why: it carries the failing record's
// stale-row error, which names the row. Job 15 of campaign 42 is
// candidate 17, the first whose row is audited.
func TestHandOffStaleRowFailsStrict(t *testing.T) {
	if testing.Short() {
		t.Skip("expert dry-runs in -short")
	}
	const auditedJob, auditedCand = 15, 17
	ctx := t.Context()
	cr := campaignRun{seed: 42, count: 16, params: gen.DefaultParams(), cachePath: filepath.Join(t.TempDir(), "verdicts.jsonl")}
	sweep := func() []dist.Record {
		t.Helper()
		coord, width, closeCoord, err := openCoordinator(ctx, nil, "", "", 2, sim.BatchConfig{Headless: true})
		if err != nil {
			t.Fatal(err)
		}
		defer closeCoord()
		stream, cleanup, err := newCampaignStream(nil, cr, width, false)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		recs, err := coord.RunStream(ctx, &campaignSource{stream: stream, count: cr.count})
		if err != nil {
			t.Fatal(err)
		}
		return recs
	}
	cold := sweep()
	if err := finishSweep(cold, "", "", true); err != nil {
		t.Fatalf("cold campaign: %v", err)
	}
	if cold[auditedJob].Seed != auditedCand {
		t.Fatalf("job %d is candidate %d, want %d: the stream moved", auditedJob, cold[auditedJob].Seed, auditedCand)
	}

	blob, err := os.ReadFile(cr.cachePath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(blob), "\n"), "\n")
	for i, line := range lines {
		var row map[string]any
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatal(err)
		}
		if row["cand"] != float64(auditedCand) {
			continue
		}
		row["res"].(map[string]any)["score"] = cold[auditedJob].Score + 1
		b, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b)
	}
	if err := os.WriteFile(cr.cachePath, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	err = finishSweep(sweep(), "", "", true)
	if err == nil {
		t.Fatal("-strict passed a campaign with a stale audited row")
	}
	for _, want := range []string{fmt.Sprintf("job %d ", auditedJob), fmt.Sprintf("(cand %d, spec ", auditedCand), trace.ErrStaleAnswer.Error()} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("-strict error %q does not say %q", err, want)
		}
	}
}
