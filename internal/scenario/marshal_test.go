// MarshalSpec writes a spec's canonical JSON itself; these tests hold its
// bytes to json.MarshalIndent(s, "", "  "), the encoding they replaced,
// because the verdict cache and the hand-off key on them. The external
// test package lets the corpus draw on the generator.
package scenario_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"testing"

	"codsim/internal/mathx"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
)

// soundCandidates returns the first n candidates of a campaign seed that
// pass the static pre-check, the specs a campaign certifies and keys.
func soundCandidates(tb testing.TB, seed int64, n int) []scenario.Spec {
	tb.Helper()
	specs := make([]scenario.Spec, 0, n)
	for k := int64(0); len(specs) < n; k++ {
		s, err := gen.Generate(gen.SubSeed(seed, k), gen.DefaultParams())
		if err != nil {
			tb.Fatalf("seed %d candidate %d: %v", seed, k, err)
		}
		if gen.StaticCheck(s) == nil {
			specs = append(specs, s)
		}
	}
	return specs
}

// matchesReference fails t unless MarshalSpec and json.MarshalIndent
// agree on s: the same bytes, or both an error.
func matchesReference(t *testing.T, label string, s scenario.Spec) {
	t.Helper()
	got, err := scenario.MarshalSpec(s)
	want, refErr := json.MarshalIndent(s, "", "  ")
	switch {
	case err != nil && refErr != nil:
	case err != nil || refErr != nil:
		t.Errorf("%s: MarshalSpec error %v, json.MarshalIndent error %v", label, err, refErr)
	case !bytes.Equal(got, want):
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s: bytes differ from json.MarshalIndent at offset %d:\n got …%s\nwant …%s",
			label, i, got[max(0, i-40):min(len(got), i+40)], want[max(0, i-40):min(len(want), i+40)])
	}
}

func TestMarshalSpecMatchesEncodingJSON(t *testing.T) {
	for _, s := range scenario.Library() {
		matchesReference(t, "library "+s.Name, s)
	}
	for _, seed := range []int64{7, 42} {
		for k, s := range soundCandidates(t, seed, 2000) {
			matchesReference(t, fmt.Sprintf("seed %d sound candidate %d", seed, k), s)
		}
	}
	for label, s := range edgeSpecs() {
		matchesReference(t, label, s)
	}
	s := filledSpec(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("the all-fields spec does not validate: %v", err)
	}
	matchesReference(t, "every field non-zero", s)
}

// TestMarshalSpecRejectsNonFinite: JSON holds no NaN or infinity, so a
// spec carrying one fails to encode, as it does under encoding/json.
func TestMarshalSpecRejectsNonFinite(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for field, set := range map[string]func(*scenario.Spec){
			"ParTime":     func(s *scenario.Spec) { s.Course.ParTime = v },
			"Wind.Mean.X": func(s *scenario.Spec) { s.Wind.Mean.X = v },
			"waypoint Z":  func(s *scenario.Spec) { s.Phases[2].Waypoints = []mathx.Vec3{{Z: v}} },
		} {
			s := scenario.Classic()
			set(&s)
			if _, err := scenario.MarshalSpec(s); err == nil {
				t.Errorf("%s = %v: MarshalSpec accepted it", field, v)
			}
			matchesReference(t, fmt.Sprintf("%s = %v", field, v), s)
		}
	}
}

// edgeSpecs varies the classic spec where an encoder's shortcuts could
// part from encoding/json: float notation boundaries, signed zero,
// subnormals, integral floats near and past the fast path's bound,
// extreme ints, nil against empty slices, and strings that need escaping.
func edgeSpecs() map[string]scenario.Spec {
	specs := make(map[string]scenario.Spec)
	add := func(label string, edit func(s *scenario.Spec)) {
		s := scenario.Classic()
		s.Phases = append([]scenario.PhaseSpec(nil), s.Phases...)
		edit(&s)
		specs[label] = s
	}
	for _, v := range []float64{
		math.Copysign(0, -1), 5e-324, -5e-324, math.SmallestNonzeroFloat64 * 3,
		1e-7, -1e-7, 1e-6, 9.999999e-7, 1.5e-10, 2.5e-100,
		1e20, 1e21, -1e21, 1.5e21, 1e22, 1e100, math.MaxFloat64,
		1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 1, 1 << 53, 1<<53 + 2, -(1 << 62), 123456789012345678,
		0.1, 1.0 / 3, -2.5, 1e-5, 12345.678, float64(math.MaxInt64), float64(math.MinInt64),
	} {
		add(fmt.Sprintf("float %v (%b)", v, v), func(s *scenario.Spec) {
			s.Course.ParTime = v
			s.Course.Start.X = v
			s.Wind.Gust = v
			s.Score.BarHit = -v
			s.Phases[0].Target.Z = v
		})
	}
	add("visibility -0", func(s *scenario.Spec) { s.Visibility = math.Copysign(0, -1) })
	add("visibility subnormal", func(s *scenario.Spec) { s.Visibility = 5e-324 })
	add("negative and extreme ints", func(s *scenario.Spec) {
		s.Phases[0].Cargo = math.MinInt // a drive node does not read Cargo
		s.Phases[0].Next = 2
		s.Phases[2].Cargo = -7
		s.Phases[3].Cargo = math.MaxInt
		s.Phases[3].Next = scenario.Terminal
	})
	add("empty slices", func(s *scenario.Spec) {
		s.Cranes = []scenario.CraneDecl{}
		s.Course.Bars = []scenario.Bar{}
		s.Course.Waypoints = []mathx.Vec3{}
		s.Phases[0].Waypoints = []mathx.Vec3{}
	})
	add("nil slices", func(s *scenario.Spec) {
		s.Cranes = nil
		s.Course.Bars = nil
		s.Course.Waypoints = nil
		s.Phases[0].Waypoints = nil
	})
	for _, str := range []string{
		"a<b", "a>b", "a&b", "line\u2028sep", "para\u2029sep", "bad \xff\xfe utf8", "é ✓ 漢字",
		`quote" back\slash`, "\x01\t\n", "del\x7f", "</script>",
	} {
		add(fmt.Sprintf("string %q", str), func(s *scenario.Spec) {
			s.Name = str
			s.Cargos = []scenario.Cargo{{Name: str, Mass: 1}}
			s.Phases[1].Name = str
		})
	}
	return specs
}

// filledSpec is a valid spec in which reflection has set every exported
// field, nested types and slice elements included, to a non-zero value,
// so a field added to Spec or to a type it holds, and not written by
// MarshalSpec, shows as a byte difference. Only the fields Validate
// constrains are then set by hand, to values that are still non-zero in
// at least one element.
func filledSpec(t *testing.T) scenario.Spec {
	var s scenario.Spec
	n := 0
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Struct:
			for _, f := range reflect.VisibleFields(v.Type()) {
				if f.IsExported() && len(f.Index) == 1 {
					fill(v.FieldByIndex(f.Index))
				}
			}
		case reflect.Slice:
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			fill(v.Index(0))
			fill(v.Index(1))
		case reflect.Float64:
			n++
			v.SetFloat(float64(n) + 0.125)
		case reflect.Int:
			n++
			v.SetInt(int64(n))
		case reflect.String:
			n++
			v.SetString(fmt.Sprintf("field-%d", n))
		case reflect.Bool:
			v.SetBool(true)
		default:
			t.Fatalf("a spec field of kind %s: teach MarshalSpec and this fill to write it", v.Kind())
		}
	}
	fill(reflect.ValueOf(&s).Elem())

	// Two cranes tandem-lift cargo 1; cargo 0 is single-hook.
	s.Cargos[0].Hooks, s.Cargos[1].Hooks = 1, 2
	for c := range s.Phases {
		p := &s.Phases[c]
		p.Kind, p.Tandem, p.Cargo, p.Crane, p.Next = scenario.PhaseLift, true, 1, c, scenario.Terminal
	}
	s.Visibility = 0.5
	return s
}

// BenchmarkMarshalSpec times MarshalSpec over the library and 64 sound
// candidates of seed 42, one spec an op; check.sh gates its allocations
// and bytes per op against BENCH_baseline.json.
func BenchmarkMarshalSpec(b *testing.B) {
	specs := append(scenario.Library(), soundCandidates(b, 42, 64)...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scenario.MarshalSpec(specs[i%len(specs)]); err != nil {
			b.Fatal(err)
		}
	}
}
