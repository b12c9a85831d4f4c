package sim

import (
	"reflect"
	"testing"

	"codsim/internal/scenario"
)

// TestClustersShareConstantAssets boots two clusters one after the other:
// both read one site map and one sound bank, and within the tandem cluster
// every display poses the spec's cranes on one baked scene — each holds
// CraneCount() cranes and the same polygons, ambient and sky, so nothing
// baked was applied twice or skipped on a clone.
func TestClustersShareConstantAssets(t *testing.T) {
	spec := scenario.TandemBeam()
	spec.Visibility = 0.5
	boot := func(spec *scenario.Spec) *Cluster {
		c, err := New(Config{Width: 96, Height: 72, Polygons: 600, Scenario: spec})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Stop)
		return c
	}
	first, second := boot(nil), boot(&spec)
	if first.site != second.site {
		t.Error("the two clusters built two site maps")
	}
	if reflect.ValueOf(first.bank).Pointer() != reflect.ValueOf(second.bank).Pointer() {
		t.Error("the two clusters built two sound banks")
	}

	if len(second.displays) != 3 {
		t.Fatalf("%d displays, want 3", len(second.displays))
	}
	lead := second.displays[0].builder
	for i, d := range second.displays {
		b := d.builder
		if got := b.Cranes(); got != spec.CraneCount() {
			t.Errorf("display %d holds %d cranes, want %d", i+1, got, spec.CraneCount())
		}
		if i == 0 {
			continue
		}
		if b == lead {
			t.Errorf("display %d poses the first display's builder", i+1)
		}
		got, want := b.Scene(), lead.Scene()
		if b.PolygonCount() != lead.PolygonCount() || got.Ambient != want.Ambient || got.Background != want.Background {
			t.Errorf("display %d: %d polygons, ambient %v, sky %v; display 1: %d, %v, %v", i+1,
				b.PolygonCount(), got.Ambient, got.Background, lead.PolygonCount(), want.Ambient, want.Background)
		}
	}
}
