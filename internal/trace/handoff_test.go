package trace

import (
	"context"
	"errors"
	"fmt"
	"strings"
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

// keyOf is spec's hand-off key.
func keyOf(t *testing.T, spec scenario.Spec) SpecKey {
	t.Helper()
	key, ok := specKey(spec)
	if !ok {
		t.Fatalf("spec %s does not marshal", spec.Name)
	}
	return key
}

// marker is a parked result no flight produces: a RunSkill that returns
// it took the hand-off, one that returns anything else flew.
func marker(name string) RunResult {
	return RunResult{Scenario: name, SimTime: -1, Passed: true, State: fom.ScenarioState{Phase: fom.PhaseComplete, Score: 123}}
}

func took(res RunResult) bool { return res.SimTime == -1 }

// A passing Completable is answered once by the RunSkill of the same
// spec, and that answer is what flying it would have returned.
func TestHandOffIsTheDryRun(t *testing.T) {
	emptyHandOff(t)
	ctx := context.Background()
	spec := scenario.Classic()
	dry, ok, err := Completable(ctx, spec, 900)
	if err != nil || !ok {
		t.Fatalf("Completable(classic) = %v, %v", ok, err)
	}
	before := HandOffs()
	got, err := RunSkill(ctx, spec, 900, SkillExpert())
	if err != nil {
		t.Fatal(err)
	}
	if HandOffs() != before+1 {
		t.Fatalf("HandOffs went %d → %d, want one take", before, HandOffs())
	}
	flown, err := NewRunner().RunSkill(ctx, spec, 900, SkillProfile{})
	if err != nil {
		t.Fatal(err)
	}
	if got != dry || got != flown {
		t.Fatalf("hand-off %+v, dry-run %+v, flight %+v", got, dry, flown)
	}
	if handOff.parked.Load() != 0 {
		t.Fatalf("%d results still parked after the take", handOff.parked.Load())
	}
}

// Every call the hand-off's rule does not cover flies, and leaves the
// parked result for the call it does cover.
func TestHandOffRefusals(t *testing.T) {
	ctx := context.Background()
	spec := scenario.Classic()
	changed := spec
	changed.Course.ParTime++
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	jittered := SkillProfile{Jitter: 0.3}
	for _, c := range []struct {
		name   string
		ctx    context.Context
		spec   scenario.Spec
		maxSim float64
		skill  SkillProfile
	}{
		{"one field changed", ctx, changed, 900, SkillProfile{}},
		{"smaller budget", ctx, spec, 899, SkillProfile{}},
		{"non-zero profile", ctx, spec, 900, SkillIntermediate()},
		{"jittered profile", ctx, spec, 900, jittered},
		{"canceled context", canceled, spec, 900, SkillProfile{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			emptyHandOff(t)
			Park(keyOf(t, spec), 900, marker(spec.Name), "")
			before := HandOffs()
			res, err := RunSkill(c.ctx, c.spec, c.maxSim, c.skill)
			if took(res) || HandOffs() != before {
				t.Fatalf("took the hand-off: %+v", res)
			}
			if c.ctx.Err() != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled run returned %v, want context.Canceled", err)
			}
			if res, _ := RunSkill(ctx, spec, 900, SkillProfile{}); !took(res) {
				t.Fatalf("the refusal spent the parked result: %+v", res)
			}
		})
	}
	t.Run("second take", func(t *testing.T) {
		emptyHandOff(t)
		Park(keyOf(t, spec), 900, marker(spec.Name), "")
		Park(keyOf(t, changed), 900, marker(changed.Name), "") // the ring is not empty after the take
		if res, _ := RunSkill(ctx, spec, 900, SkillProfile{}); !took(res) {
			t.Fatalf("first call flew: %+v", res)
		}
		before := HandOffs()
		if res, _ := RunSkill(ctx, spec, 900, SkillProfile{}); took(res) || HandOffs() != before {
			t.Fatalf("second call took the same result again: %+v", res)
		}
	})
	t.Run("larger budget", func(t *testing.T) {
		emptyHandOff(t)
		Park(keyOf(t, spec), 900, marker(spec.Name), "")
		if res, _ := RunSkill(ctx, spec, 1800, SkillExpert()); !took(res) {
			t.Fatalf("a larger budget flew: %+v", res)
		}
	})
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
		if _, ok := take(context.Background(), s, 900, SkillProfile{}); ok {
			t.Fatalf("%s was overwritten but could still be taken", s.Name)
		}
	}
	for _, s := range []scenario.Spec{specs[n], specs[2*n-1]} {
		if p, ok := take(context.Background(), s, 900, SkillProfile{}); !ok || p.res.Scenario != s.Name {
			t.Fatalf("%s: took %v, %+v", s.Name, ok, p.res)
		}
	}
	if got := handOff.parked.Load(); got != int64(n-2) {
		t.Fatalf("%d results parked after two takes, want %d", got, n-2)
	}
}

// Parks and takes from many goroutines keep the ring consistent: each
// parked result is taken at most once, and what was not taken is still
// parked.
func TestHandOffConcurrent(t *testing.T) {
	emptyHandOff(t)
	const workers, each = 4, 16 // 64 parked at most: under the ring's size
	before := HandOffs()
	var wg sync.WaitGroup
	takes := make([]int, workers)
	for w := range workers {
		specs := namedSpecs(t, fmt.Sprintf("w%d", w), each)
		keys := make([]SpecKey, each)
		for i, s := range specs {
			keys[i] = keyOf(t, s)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i, s := range specs {
				Park(keys[i], 900, marker(s.Name), "")
			}
		}()
		go func() {
			defer wg.Done()
			for _, s := range specs {
				if p, ok := take(context.Background(), s, 900, SkillProfile{}); ok {
					if p.res.Scenario != s.Name {
						t.Errorf("took %s's result for %s", p.res.Scenario, s.Name)
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
	if got := HandOffs() - before; got != int64(total) {
		t.Fatalf("HandOffs counted %d takes, the takers saw %d", got, total)
	}
	if left := handOff.parked.Load(); left != int64(workers*each-total) {
		t.Fatalf("%d results parked, want %d parked minus %d taken", left, workers*each, total)
	}
}

// An audited answer is flown, never returned as is: a true answer gives
// the flight, a stale one an ErrStaleAnswer naming its row. Audits counts
// both, HandOffs neither.
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
			handOffs, audits := HandOffs(), Audits()
			res, err := RunSkill(ctx, spec, 900, SkillProfile{})
			if HandOffs() != handOffs || Audits() != audits+1 {
				t.Fatalf("HandOffs +%d, Audits +%d, want +0 and +1", HandOffs()-handOffs, Audits()-audits)
			}
			if res != flown {
				t.Fatalf("audited run returned %+v, the flight is %+v", res, flown)
			}
			if c.stale != errors.Is(err, ErrStaleAnswer) {
				t.Fatalf("audit of the %s: err %v", c.name, err)
			}
			if c.stale && !strings.Contains(err.Error(), "row 7 is stale") {
				t.Fatalf("stale-answer error does not name the row: %v", err)
			}
			if handOff.parked.Load() != 0 {
				t.Fatal("the audit left its answer parked")
			}
		})
	}
}

// A Note on the dry-run's context receives what Completable parks, and
// answers only for the same spec bytes within the noted budget.
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
}
