package trace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/scenario"
)

// emptyHandOff clears the ring so a test sees only what it parks.
func emptyHandOff(t *testing.T) {
	t.Helper()
	handOff.mu.Lock()
	defer handOff.mu.Unlock()
	clear(handOff.slots)
	handOff.next = 0
	handOff.parked.Store(0)
}

// rawOf is spec's MarshalSpec bytes.
func rawOf(t *testing.T, spec scenario.Spec) []byte {
	t.Helper()
	raw, err := scenario.MarshalSpec(spec)
	if err != nil {
		t.Fatalf("spec %s does not marshal: %v", spec.Name, err)
	}
	return raw
}

// keyOf is spec's hand-off key.
func keyOf(t *testing.T, spec scenario.Spec) SpecKey { return KeyOf(rawOf(t, spec)) }

// marker is a parked result no flight produces.
func marker(name string) RunResult {
	return RunResult{Scenario: name, SimTime: -1, Passed: true, State: fom.ScenarioState{Phase: fom.PhaseComplete, Score: 123}}
}

func took(res RunResult) bool { return res.SimTime == -1 }

// A passing Completable parks its dry-run, which is what flying the spec
// returns, and the job that pulls the spec takes it once.
func TestHandOffIsTheDryRun(t *testing.T) {
	emptyHandOff(t)
	ctx := context.Background()
	spec := scenario.Classic()
	dry, ok, err := Completable(ctx, spec, 900)
	if err != nil || !ok {
		t.Fatalf("Completable(classic) = %v, %v", ok, err)
	}
	flown, err := NewRunner().RunSkill(ctx, spec, 900, SkillProfile{})
	if err != nil {
		t.Fatal(err)
	}
	got, ok := Take(rawOf(t, spec))
	if !ok || got.Result != dry || got.Result != flown || got.Budget != 900 || got.Audit != "" {
		t.Fatalf("took %v %+v; dry-run %+v, flight %+v", ok, got, dry, flown)
	}
	if handOff.parked.Load() != 0 {
		t.Fatalf("%d results still parked after the take", handOff.parked.Load())
	}
}

// An answer stands only for the run it repeats, and is taken only by the
// spec bytes it was parked for, once. The package-level RunSkill takes
// nothing: it flies, and leaves the answer parked.
func TestHandOffRefusals(t *testing.T) {
	ctx := context.Background()
	spec := scenario.Classic()
	changed := spec
	changed.Course.ParTime++
	parked := Answer{Result: marker(spec.Name), Budget: 900}
	for _, c := range []struct {
		name   string
		maxSim float64
		skill  SkillProfile
		stands bool
	}{
		{"smaller budget", 899, SkillProfile{}, false},
		{"non-zero profile", 900, SkillIntermediate(), false},
		{"jittered profile", 900, SkillProfile{Jitter: 0.3}, false},
		{"larger budget", 1800, SkillExpert(), true},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := parked.Stands(c.maxSim, c.skill); got != c.stands {
				t.Fatalf("Stands(%v, %+v) = %v, want %v", c.maxSim, c.skill, got, c.stands)
			}
		})
	}
	t.Run("one field changed", func(t *testing.T) {
		emptyHandOff(t)
		Park(keyOf(t, spec), 900, marker(spec.Name), "")
		if a, ok := Take(rawOf(t, changed)); ok {
			t.Fatalf("a changed spec took %+v", a)
		}
		if _, ok := Take(rawOf(t, spec)); !ok {
			t.Fatal("the refusal spent the parked result")
		}
	})
	t.Run("second take", func(t *testing.T) {
		emptyHandOff(t)
		Park(keyOf(t, spec), 900, marker(spec.Name), "")
		Park(keyOf(t, changed), 900, marker(changed.Name), "") // the ring is not empty after the take
		if _, ok := Take(rawOf(t, spec)); !ok {
			t.Fatal("first take found nothing")
		}
		if a, ok := Take(rawOf(t, spec)); ok {
			t.Fatalf("second take took the same result again: %+v", a)
		}
	})
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	for _, c := range []struct {
		name string
		ctx  context.Context
	}{{"run skill flies", ctx}, {"canceled context", canceled}} {
		t.Run(c.name, func(t *testing.T) {
			emptyHandOff(t)
			Park(keyOf(t, spec), 900, marker(spec.Name), "")
			res, err := RunSkill(c.ctx, spec, 900, SkillProfile{})
			if took(res) || !errors.Is(err, c.ctx.Err()) {
				t.Fatalf("RunSkill returned %+v, %v; want a flight ending in %v", res, err, c.ctx.Err())
			}
			if handOff.parked.Load() != 1 {
				t.Fatal("RunSkill spent the parked result")
			}
		})
	}
}

// namedSpecs returns n specs whose MarshalSpec bytes all differ.
func namedSpecs(t *testing.T, prefix string, n int) []scenario.Spec {
	t.Helper()
	specs := make([]scenario.Spec, n)
	for i := range specs {
		specs[i] = scenario.Classic()
		specs[i].Name = fmt.Sprintf("%s-%d", prefix, i)
	}
	return specs
}

// Parking twice the ring's capacity keeps it at capacity, with the oldest
// results overwritten and the newest still there to take.
func TestHandOffRingIsBounded(t *testing.T) {
	emptyHandOff(t)
	n := len(handOff.slots)
	specs := namedSpecs(t, "ring", 2*n)
	for _, s := range specs {
		Park(keyOf(t, s), 900, marker(s.Name), "")
	}
	if got := handOff.parked.Load(); got != int64(n) {
		t.Fatalf("%d results parked after %d parks, want the ring's %d", got, 2*n, n)
	}
	for _, s := range []scenario.Spec{specs[0], specs[n-1]} {
		if _, ok := Take(rawOf(t, s)); ok {
			t.Fatalf("%s was overwritten but could still be taken", s.Name)
		}
	}
	for _, s := range []scenario.Spec{specs[n], specs[2*n-1]} {
		if a, ok := Take(rawOf(t, s)); !ok || a.Result.Scenario != s.Name {
			t.Fatalf("%s: took %v, %+v", s.Name, ok, a)
		}
	}
	if got := handOff.parked.Load(); got != int64(n-2) {
		t.Fatalf("%d results parked after two takes, want %d", got, n-2)
	}
}

// Take hands out the answer parked last for a spec, wherever the ring's
// write position stands: an older answer for the same spec, left by a
// lookahead nobody took, does not shadow the audited answer parked for
// the job after it, and is taken only next.
func TestHandOffTakesTheNewest(t *testing.T) {
	spec := namedSpecs(t, "twice", 1)[0]
	fillers := namedSpecs(t, "filler", len(handOff.slots))
	for _, before := range []int{0, len(handOff.slots) - 1} {
		emptyHandOff(t)
		for _, f := range fillers[:before] {
			Park(keyOf(t, f), 900, marker(f.Name), "")
		}
		Park(keyOf(t, spec), 900, marker(spec.Name), "")
		Park(keyOf(t, spec), 900, marker(spec.Name), "row 7")
		if a, ok := Take(rawOf(t, spec)); !ok || a.Audit != "row 7" {
			t.Fatalf("%d parked before: took %v, %+v; want the audited answer parked last", before, ok, a)
		}
		if a, ok := Take(rawOf(t, spec)); !ok || a.Audit != "" {
			t.Fatalf("%d parked before: took %v, %+v; want the older answer next", before, ok, a)
		}
	}
}

// Parks and takes from many goroutines keep the ring consistent: each
// parked result is taken at most once, by its own spec, and what was not
// taken is still parked.
func TestHandOffConcurrent(t *testing.T) {
	emptyHandOff(t)
	const workers, each = 4, 16 // 64 parked at most: under the ring's size
	var wg sync.WaitGroup
	takes := make([]int, workers)
	for w := range workers {
		specs := namedSpecs(t, fmt.Sprintf("w%d", w), each)
		raws := make([][]byte, each)
		for i, s := range specs {
			raws[i] = rawOf(t, s)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i, s := range specs {
				Park(KeyOf(raws[i]), 900, marker(s.Name), "")
			}
		}()
		go func() {
			defer wg.Done()
			for i, s := range specs {
				if a, ok := Take(raws[i]); ok {
					if a.Result.Scenario != s.Name {
						t.Errorf("took %s's result for %s", a.Result.Scenario, s.Name)
					}
					takes[w]++
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for _, n := range takes {
		total += n
	}
	if left := handOff.parked.Load(); left != int64(workers*each-total) {
		t.Fatalf("%d results parked, want %d parked minus %d taken", left, workers*each, total)
	}
}

// An audited answer reaches the job that pulls its spec as parked: taken
// once, with the row it came from named, and standing for the expert
// flight. What the coordinator holds that flight to is the answer's
// Result, so the true row's answer is the flight tick for tick and a row
// edited since is not.
func TestHandOffAuditFlies(t *testing.T) {
	ctx := context.Background()
	spec := scenario.Classic()
	flown, err := NewRunner().RunSkill(ctx, spec, 900, SkillProfile{})
	if err != nil {
		t.Fatal(err)
	}
	stale := flown
	stale.State.Score++
	for _, c := range []struct {
		name   string
		answer RunResult
		stale  bool
	}{{"true answer", flown, false}, {"stale answer", stale, true}} {
		t.Run(c.name, func(t *testing.T) {
			emptyHandOff(t)
			Park(keyOf(t, spec), 900, c.answer, "row 7")
			a, ok := Take(rawOf(t, spec))
			if !ok || a.Audit != "row 7" || a.Result != c.answer || a.Budget != 900 {
				t.Fatalf("took %v %+v, want the answer parked for row 7", ok, a)
			}
			if !a.Stands(900, SkillProfile{}) {
				t.Fatal("the audited answer does not stand for the expert flight")
			}
			if handOff.parked.Load() != 0 {
				t.Fatal("the take left the audited answer parked")
			}
			res, err := RunSkill(ctx, spec, 900, SkillProfile{})
			if err != nil {
				t.Fatal(err)
			}
			if res != flown {
				t.Fatalf("the audited job's flight returned %+v, the flight is %+v", res, flown)
			}
			if c.stale != (res != a.Result) {
				t.Fatalf("audit of the %s: flight %+v, row %+v", c.name, res, a.Result)
			}
		})
	}
}

// A Note on the dry-run's context receives what Completable parks, and
// answers only for the same spec bytes within the noted budget. A note
// made with the spec's key parks under that key, not a fresh marshal's.
func TestHandOffNote(t *testing.T) {
	emptyHandOff(t)
	spec := scenario.Classic()
	var n Note
	dry, ok, err := Completable(WithNote(context.Background(), &n), spec, 900)
	if err != nil || !ok {
		t.Fatalf("Completable(classic) = %v, %v", ok, err)
	}
	if res, ok := n.For(keyOf(t, spec), 900); !ok || res != dry {
		t.Fatalf("note holds %v %+v, want the dry-run %+v", ok, res, dry)
	}
	changed := spec
	changed.Course.ParTime++
	if _, ok := n.For(keyOf(t, changed), 900); ok {
		t.Fatal("the note answered for another spec")
	}
	if _, ok := n.For(keyOf(t, spec), 899); ok {
		t.Fatal("the note answered for a smaller budget than the dry-run's")
	}
	var empty Note
	if _, ok := empty.For(keyOf(t, spec), 900); ok {
		t.Fatal("an unwritten note answered")
	}

	// The key a NoteFor gives is taken on trust: a key that is not the
	// spec's shows that Completable did not marshal the spec again.
	emptyHandOff(t)
	keyed := NoteFor(keyOf(t, changed))
	if _, ok, err := Completable(WithNote(context.Background(), keyed), spec, 900); err != nil || !ok {
		t.Fatalf("Completable(classic) = %v, %v", ok, err)
	}
	if res, ok := keyed.For(keyOf(t, changed), 900); !ok || res != dry {
		t.Fatalf("keyed note holds %v %+v, want the dry-run %+v", ok, res, dry)
	}
	if _, ok := Take(rawOf(t, spec)); ok {
		t.Fatal("Completable parked under the spec's own key, not the note's")
	}
	if a, ok := Take(rawOf(t, changed)); !ok || a.Result != dry {
		t.Fatalf("nothing parked under the note's key: %v %+v", ok, a)
	}
}
