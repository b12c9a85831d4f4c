package gen

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/trace"
)

// answeredRow is a passing row with an answer, as the cache writes it.
const answeredRow = `{"sig":"42-8c425b59","cand":3,"spec":"00000000000000a0","ok":true,"res":{"phase":6,"score":88,"elapsed":49.75,"collisions":0,"waypoint":0,"message":"Generated linear carry #1 passed — score 88.0","phase_index":4,"crane":0,"sim_time":49.75,"alarms":3}}`

// oldRow is a row written before rows held answers.
const oldRow = `{"sig":"42-8c425b59","cand":4,"spec":"00000000000000a1","ok":true}`

// openRows writes lines to a fresh cache file and opens it for seed 42
// under the default params.
func openRows(t testing.TB, lines ...string) *Cache {
	t.Helper()
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path, 42, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// A row's answer loads whole or not at all: without any one of its fields,
// with a field of the wrong type, with a state that is not a completed
// run's, or on a vetoed row, the verdict loads and the answer does not.
func TestCacheAnswerLoadsWhole(t *testing.T) {
	if got := openRows(t, answeredRow); len(got.answers) != 1 {
		t.Fatalf("the well-formed row loaded %d answers, want 1", len(got.answers))
	}
	var row map[string]any
	if err := json.Unmarshal([]byte(answeredRow), &row); err != nil {
		t.Fatal(err)
	}
	res := row["res"].(map[string]any)
	variant := func(edit func(res, row map[string]any)) string {
		r, a := make(map[string]any), make(map[string]any)
		for k, v := range row {
			r[k] = v
		}
		for k, v := range res {
			a[k] = v
		}
		r["res"] = a
		edit(a, r)
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	cases := map[string]string{
		"vetoed row":   variant(func(_, r map[string]any) { r["ok"] = false }),
		"failed state": variant(func(a, _ map[string]any) { a["phase"] = float64(fom.PhaseFailed) }),
		"string score": variant(func(a, _ map[string]any) { a["score"] = "88" }),
		"null message": variant(func(a, _ map[string]any) { a["message"] = nil }),
		"negative":     variant(func(a, _ map[string]any) { a["alarms"] = -1 }),
		"not object":   variant(func(_, r map[string]any) { r["res"] = []int{6, 88} }),
	}
	for field := range res {
		cases["no "+field] = variant(func(a, _ map[string]any) { delete(a, field) })
	}
	for name, line := range cases {
		c := openRows(t, line)
		if len(c.m) != 1 || len(c.answers) != 0 {
			t.Errorf("%s: loaded %d verdicts and %d answers, want 1 and 0: %s", name, len(c.m), len(c.answers), line)
		}
	}
}

// Rows the stream writes carry the result the dry-run parked, and a warm
// lookup gives it back field for field.
func TestCacheRowsHoldTheDryRun(t *testing.T) {
	if testing.Short() {
		t.Skip("expert dry-runs in -short")
	}
	const seed = 23
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	p := DefaultParams()
	c, err := OpenCache(path, seed, p)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(seed, p)
	s.Cache = c
	var specs []scenario.Spec
	for range 4 {
		spec, _, err := s.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, spec)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	warm, err := OpenCache(path, seed, p)
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if len(warm.answers) != 4 || len(warm.m) != int(s.Stats().Candidates) {
		t.Fatalf("%d answers over %d rows, want one per emission (4) over %d candidates",
			len(warm.answers), len(warm.m), s.Stats().Candidates)
	}
	for cand := range int64(s.Stats().Candidates) {
		spec, err := Generate(SubSeed(seed, cand), p)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.ContainsFunc(specs, func(e scenario.Spec) bool { return e.Title == spec.Title }) {
			continue
		}
		hash, err := SpecHash(spec)
		if err != nil {
			t.Fatal(err)
		}
		_, _, got, answered := warm.lookup(cand, hash)
		got.Scenario = spec.Name
		flown, err := trace.NewRunner().RunSkill(context.Background(), spec, trace.DefaultBudget(spec), trace.SkillProfile{})
		if err != nil || !answered || got != flown {
			t.Fatalf("cand %d: row answer %v %+v, flight %+v (%v)", cand, answered, got, flown, err)
		}
	}
}

// An oracle that parks nothing — the static one, or a stub — writes rows
// without answers, and their jobs fly.
func TestCacheRowsOfNonParkingOraclesHoldNoAnswer(t *testing.T) {
	for name, oracle := range map[string]Oracle{
		"StaticOnly": StaticOnly,
		"stub":       func(context.Context, scenario.Spec) (bool, error) { return true, nil },
	} {
		path := filepath.Join(t.TempDir(), "verdicts.jsonl")
		c, err := OpenCache(path, 42, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		s := NewStream(42, DefaultParams())
		s.Oracle, s.Cache = oracle, c
		drain(t, s, 10)
		if len(c.answers) != 0 {
			t.Errorf("%s: %d rows hold answers in memory", name, len(c.answers))
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := OpenCache(path, 42, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if len(reopened.m) == 0 || len(reopened.answers) != 0 {
			t.Errorf("%s: reopened %d rows with %d answers, want some rows and no answer", name, len(reopened.m), len(reopened.answers))
		}
		reopened.Close()
	}
}

// compatSeed is the campaign seed of testdata/verdicts-v1.jsonl: rows in
// the format before answers were stored, written by codbatch -campaign
// 11:12 -campaign-cache at that format's last commit.
const compatSeed = 11

// A cache file of the old format still loads and replays every verdict,
// with no dry-run; its rows hold no answers, so every job flies.
func TestCacheOldFormatReplaysAndFlies(t *testing.T) {
	if testing.Short() {
		t.Skip("flights in -short")
	}
	blob, err := os.ReadFile(filepath.Join("testdata", "verdicts-v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(path, compatSeed, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rows := strings.Count(string(blob), "\n")
	if len(c.m) != rows || len(c.answers) != 0 {
		t.Fatalf("loaded %d verdicts and %d answers from %d old rows, want every verdict and no answer", len(c.m), len(c.answers), rows)
	}
	s := NewStream(compatSeed, DefaultParams())
	s.Cache = c
	ctx := context.Background()
	for i := range 12 {
		spec, _, err := s.Next(ctx)
		if err != nil {
			t.Fatalf("emission %d: %v", i, err)
		}
		raw, err := scenario.MarshalSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if a, ok := trace.Take(raw); ok {
			t.Fatalf("emission %d (%s): an old row parked %+v, want its job flown", i, spec.Name, a)
		}
	}
	if st := s.Stats(); st.OracleRuns != 0 || st.CacheMisses != 0 || st.CacheHits != int64(rows) {
		t.Fatalf("old rows replayed as %+v, want %d hits and no dry-run", st, rows)
	}
}

// FuzzOpenCache holds the cache loader to its contract on any bytes: it
// never panics or fails on content, every answer it loads sits on a
// passing row and is a completed run's, and writing the loaded rows back
// out loads the same rows again.
func FuzzOpenCache(f *testing.F) {
	f.Add([]byte(oldRow + "\n"))
	f.Add([]byte(answeredRow + "\n" + oldRow + "\n"))
	f.Add([]byte(oldRow + "\n" + answeredRow[:len(answeredRow)/2]))
	sig := Sig(42, DefaultParams())
	load := func(t *testing.T, blob []byte) *Cache {
		c := &Cache{sig: sig, m: make(map[cacheKey]verdict)}
		if err := c.load(bytes.NewReader(blob)); err != nil {
			t.Fatalf("load: %v", err)
		}
		return c
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		c := load(t, blob)
		var out []byte
		for key, v := range c.m {
			var res *trace.RunResult
			ok, _, got, answered := c.lookup(key.cand, key.spec)
			if answered {
				if !v.ok || got.State.Phase != fom.PhaseComplete || !got.Passed {
					t.Fatalf("row %+v loaded answer %+v", key, got)
				}
				res = &got
			}
			line, err := c.encode(key.cand, key.spec, ok, res)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, line...)
		}
		again := load(t, out)
		if len(again.m) != len(c.m) || len(again.answers) != len(c.answers) {
			t.Fatalf("%d rows with %d answers read back as %d with %d", len(c.m), len(c.answers), len(again.m), len(again.answers))
		}
		for key := range c.m {
			ok1, _, res1, ans1 := c.lookup(key.cand, key.spec)
			ok2, found, res2, ans2 := again.lookup(key.cand, key.spec)
			if !found || ok1 != ok2 || ans1 != ans2 || res1 != res2 {
				t.Fatalf("row %+v: %v %v %+v read back as %v %v %+v", key, ok1, ans1, res1, ok2, ans2, res2)
			}
		}
	})
}
