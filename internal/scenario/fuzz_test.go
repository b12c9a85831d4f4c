// Fuzz targets for the Spec JSON surface. Specs cross a trust boundary —
// the dist protocol ships them between hosts, -specs loads user files,
// and the generator emits them by the thousand — so the decoder and the
// validator must hold for arbitrary bytes, not just well-formed specs.
// The external test package lets the seed corpus draw on both the
// hand-built library and the procedural generator without an import
// cycle.
package scenario_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
)

// seedCorpus is every spec the repo can produce today: the shipped
// library plus one generated candidate per archetype-rich seed.
func seedCorpus(f *testing.F) {
	f.Helper()
	for _, s := range scenario.Library() {
		data, err := scenario.MarshalSpec(s)
		if err != nil {
			f.Fatalf("library %s: %v", s.Name, err)
		}
		f.Add(data)
	}
	for k := int64(0); k < 8; k++ {
		s, err := gen.Generate(gen.SubSeed(7, k), gen.DefaultParams())
		if err != nil {
			f.Fatalf("gen candidate %d: %v", k, err)
		}
		data, err := scenario.MarshalSpec(s)
		if err != nil {
			f.Fatalf("gen candidate %d marshal: %v", k, err)
		}
		f.Add(data)
	}
}

// FuzzUnmarshalSpec: arbitrary bytes must never panic the decoder, and
// any accepted spec must re-marshal, re-parse, and re-marshal to the same
// bytes — the dist protocol depends on specs surviving the trip. The
// re-marshaled bytes must also be json.MarshalIndent's: MarshalSpec
// writes the canonical encoding itself, and any spec the decoder accepts
// is one it must write exactly as the reference does.
func FuzzUnmarshalSpec(f *testing.F) {
	seedCorpus(f)
	f.Add([]byte(`{"Name":"x"}`))
	f.Add([]byte(`{"Name":"x","Phases":[{"Kind":"lift","Cargo":99}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := scenario.UnmarshalSpec(data)
		if err != nil {
			return
		}
		out, err := scenario.MarshalSpec(s)
		if err != nil {
			t.Fatalf("accepted spec %q does not re-marshal: %v", s.Name, err)
		}
		if ref, err := json.MarshalIndent(s, "", "  "); err != nil || !bytes.Equal(out, ref) {
			t.Fatalf("spec %q: MarshalSpec differs from json.MarshalIndent (%v):\n%s\n%s", s.Name, err, out, ref)
		}
		s2, err := scenario.UnmarshalSpec(out)
		if err != nil {
			t.Fatalf("re-marshal of %q does not re-parse: %v", s.Name, err)
		}
		out2, err := scenario.MarshalSpec(s2)
		if err != nil {
			t.Fatalf("round-tripped %q does not re-marshal: %v", s.Name, err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("spec %q round-trip is not a fixed point", s.Name)
		}
	})
}

// FuzzValidate: Validate must never panic, even on structurally wild
// specs the strict decoder would refuse — engine construction and the
// generator both call it on in-memory Specs that never passed through
// UnmarshalSpec's checks.
func FuzzValidate(f *testing.F) {
	seedCorpus(f)
	f.Add([]byte(`{"Phases":[{"Kind":4}]}`))
	f.Add([]byte(`{"Cranes":[{}],"Phases":[{"Kind":"place","Crane":-1}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The lenient decoder: unknown fields and bad kinds are dropped
		// rather than rejected, reaching Validate with shapes the strict
		// path cannot produce.
		var s scenario.Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		_ = s.Validate() // must not panic
	})
}
