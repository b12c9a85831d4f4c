package gen

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"codsim/internal/scenario"
	"codsim/internal/trace"
)

// vetoOracle is the deterministic stub used across stream tests: veto
// every candidate whose title's rune sum is divisible by three. Cheap,
// spec-derived, scheduling-independent.
func vetoOracle(_ context.Context, spec scenario.Spec) (bool, error) {
	var sum int
	for _, c := range spec.Title {
		sum += int(c)
	}
	return sum%3 != 0, nil
}

// drain pulls n emissions and returns their canonical bytes plus the
// candidate index each was sampled at.
func drain(t *testing.T, s *Stream, n int) []string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		spec, cand, err := s.Next(context.Background())
		if err != nil {
			t.Fatalf("emit %d: %v", i, err)
		}
		j, err := scenario.MarshalSpec(spec)
		if err != nil {
			t.Fatalf("emit %d marshal: %v", i, err)
		}
		out = append(out, string(j)+"#"+string(rune('0'+cand%10)))
	}
	return out
}

// Prefetch and Parallel must be invisible: after the same number of Next
// calls every width, prefetching or not, has emitted byte-identical specs
// at identical candidate indices with identical tallies. This is the
// determinism contract that lets campaigns turn the lanes on, or change
// their number, without re-validating a golden file.
func TestStreamPrefetchDeterministic(t *testing.T) {
	const n = 40
	run := func(width int, prefetch bool) ([]string, Stats) {
		s := NewStream(99, DefaultParams())
		s.Oracle = vetoOracle
		s.Parallel = width
		s.Prefetch = prefetch
		defer s.Close()
		return drain(t, s, n), s.Stats()
	}

	serial, ss := run(1, false)
	if ss.OracleRejects == 0 {
		t.Fatal("stub oracle never vetoed — test is vacuous")
	}
	for _, width := range []int{1, 2, 4, 8} {
		for _, prefetch := range []bool{false, true} {
			got, gs := run(width, prefetch)
			for i := range serial {
				if got[i] != serial[i] {
					t.Fatalf("emission %d differs: width %d prefetch %v vs serial", i, width, prefetch)
				}
			}
			// The tallies stop at the last emission's candidate: no lane's
			// lookahead, however wide, is ever counted.
			if gs != ss {
				t.Fatalf("tallies differ at width %d prefetch %v:\nserial %+v\ngot    %+v", width, prefetch, ss, gs)
			}
		}
	}
}

// Closing a stream mid-prefetch must not leak or deadlock, and a stream
// that never prefetched tolerates Close too.
func TestStreamCloseMidPrefetch(t *testing.T) {
	s := NewStream(5, DefaultParams())
	s.Oracle = vetoOracle
	s.Prefetch = true
	if _, _, err := s.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent

	NewStream(5, DefaultParams()).Close() // never prefetched
}

// A warm cache must replay every verdict: the second run over the same
// seed+params flies zero live dry-runs and still emits the identical
// sequence. This is the acceptance bar for "re-running a certified
// campaign costs file reads, not sim time".
func TestStreamCacheWarmRerun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	p := DefaultParams()

	run := func() ([]string, Stats) {
		c, err := OpenCache(path, 42, p)
		if err != nil {
			t.Fatal(err)
		}
		s := NewStream(42, p)
		s.Oracle = vetoOracle
		s.Cache = c
		out := drain(t, s, 15)
		s.Close()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return out, s.Stats()
	}

	cold, cs := run()
	if cs.OracleRuns == 0 || cs.CacheHits != 0 {
		t.Fatalf("cold run tallies wrong: %+v", cs)
	}
	warm, ws := run()
	if ws.OracleRuns != 0 {
		t.Fatalf("warm run flew %d live dry-runs, want 0: %+v", ws.OracleRuns, ws)
	}
	if ws.CacheHits != cs.OracleRuns {
		t.Fatalf("warm hits %d != cold live runs %d", ws.CacheHits, cs.OracleRuns)
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Fatalf("emission %d differs cold vs warm", i)
		}
	}
	if cs.Emitted != ws.Emitted || cs.Candidates != ws.Candidates || cs.OracleRejects != ws.OracleRejects {
		t.Fatalf("verdict-shape tallies differ:\ncold %+v\nwarm %+v", cs, ws)
	}
}

// Corrupt lines (torn writes, hand edits) and entries from other
// campaign signatures must be skipped on load, not fail it — and the
// surviving entries still load.
func TestCacheSkipsCorruptAndForeignLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	p := DefaultParams()

	c, err := OpenCache(path, 42, p)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(42, p)
	s.Oracle = vetoOracle
	s.Cache = c
	drain(t, s, 5)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	want := s.Stats().OracleRuns

	// Splice garbage between valid lines: a torn half-record, raw noise,
	// and a well-formed line under a different campaign signature.
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob = append(blob, []byte(`{"sig":"42-dead`+"\n")...)
	blob = append(blob, []byte("not json at all\n")...)
	blob = append(blob, []byte(`{"sig":"7-00000000","cand":0,"spec":"0000000000000000","ok":true}`+"\n")...)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := OpenCache(path, 42, p)
	if err != nil {
		t.Fatalf("reopen after corruption: %v", err)
	}
	defer c2.Close()
	if got := int64(len(c2.m)); got != want {
		t.Fatalf("loaded %d verdicts after corruption, want %d", got, want)
	}
}

// A ReadOnly cache must consult without recording: a preview runs a
// weaker oracle than the strict dry-run, and its verdicts must never
// poison the store strict campaigns trust.
func TestCacheReadOnlyRecordsNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	p := DefaultParams()

	c, err := OpenCache(path, 42, p)
	if err != nil {
		t.Fatal(err)
	}
	c.ReadOnly = true
	s := NewStream(42, p)
	s.Oracle = vetoOracle
	s.Cache = c
	drain(t, s, 5)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.CacheMisses == 0 || st.CacheHits != 0 {
		t.Fatalf("read-only stream tallies wrong: %+v", st)
	}

	c2, err := OpenCache(path, 42, p)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if len(c2.m) != 0 {
		t.Fatalf("read-only cache recorded %d verdicts, want 0", len(c2.m))
	}
}

// Sig must be count-independent (one cache serves 1k and 100k sweeps of
// the same campaign) but params- and seed-sensitive.
func TestSigStable(t *testing.T) {
	p := DefaultParams()
	if Sig(5, p) != Sig(5, p) {
		t.Fatal("sig not stable")
	}
	q := p
	q.WindProb = 0.9
	if Sig(5, p) == Sig(5, q) {
		t.Fatal("sig ignores params")
	}
	if Sig(5, p) == Sig(6, p) {
		t.Fatal("sig ignores seed")
	}
}

// A stream with no cache is still the one producer of its jobs' answers:
// each emitted candidate's passing dry-run is parked under the spec's
// MarshalSpec bytes, unaudited (that a dry-run is what flying the spec
// returns is trace's TestHandOffIsTheDryRun). An oracle that flies nothing
// parks nothing. The seed is this test's own,
// so no other test's lookahead sits in the ring under its specs.
func TestStreamParksDryRunsWithoutCache(t *testing.T) {
	const seed, n = 454, 3
	ctx := context.Background()
	for _, static := range []bool{true, false} {
		s := NewStream(seed, DefaultParams())
		if static {
			s.Oracle = StaticOnly
		}
		for i := range n {
			spec, _, err := s.Next(ctx)
			if err != nil {
				t.Fatal(err)
			}
			raw, err := scenario.MarshalSpec(spec)
			if err != nil {
				t.Fatal(err)
			}
			a, ok := trace.Take(raw)
			if static {
				if ok {
					t.Fatalf("StaticOnly emission %d (%s) parked %+v", i, spec.Name, a)
				}
				continue
			}
			if !ok || a.Audit != "" || a.Budget != trace.DefaultBudget(spec) || !a.Result.Passed || a.Result.Scenario != spec.Name {
				t.Fatalf("emission %d (%s): took %v %+v, want its unaudited passing dry-run", i, spec.Name, ok, a)
			}
		}
	}
}
