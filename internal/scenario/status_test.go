package scenario

import (
	"fmt"
	"testing"
	"unsafe"

	"codsim/internal/crane"
	"codsim/internal/fom"
	"codsim/internal/mathx"
)

// TestLiveStatusTextMatchesSprintf: the live status texts, put together by
// hand so that a tick whose text reads as before allocates nothing, read
// exactly as fmt.Sprintf prints their formats, rounding included, and an
// unchanged text is the same string as before.
func TestLiveStatusTextMatchesSprintf(t *testing.T) {
	e := newEngine()
	e.Start()
	states := make([]fom.CraneState, 1)
	st := &states[0]
	cases := 0
	for i := range e.spec.Phases {
		ps := &e.spec.Phases[i]
		for _, off := range []float64{0.04, 0.05, 0.45, 0.5, 0.55, 1.5, 2.5, 12.345, 99.95, 1234.5} {
			e.cursors[0] = cursor{idx: i}
			*st = fom.CraneState{CargoID: -1}
			var want string
			switch ps.Kind {
			case PhaseDrive:
				st.Position = ps.Target.Add(mathx.V3(ps.Radius+off, 0, 0))
				want = fmt.Sprintf("drive to %s (%.0f m to go)", phaseLabel(ps), horizDist(st.Position, ps.Target))
			case PhaseLift:
				st.CargoHeld, st.CargoID = true, int64(ps.Cargo)+1
				want = fmt.Sprintf("that is not %s — set it down and lift %s", e.cargoName(int(st.CargoID)), e.cargoName(ps.Cargo))
			case PhaseTraverse:
				wp := ps.Waypoints[0]
				st.CargoHeld, st.CargoPos = true, wp.Add(mathx.V3(0, 0, ps.Radius+off))
				want = fmt.Sprintf("waypoint %d/%d (%.1f m)", 1, len(ps.Waypoints), horizDist(st.CargoPos, wp))
			case PhasePlace:
				st.CargoHeld, st.CargoPos = true, ps.Target.Add(mathx.V3(ps.Radius+off, 0, 0))
				want = fmt.Sprintf("lower and release the cargo at %s", phaseLabel(ps))
			}
			e.stepCursor(0, states)
			if got := e.cursors[0].message; got != want {
				t.Errorf("phase %d (%v), %v m out: status %q, want %q", i, ps.Kind, off, got, want)
			}
			kept := e.cursors[0].message
			if n := testing.AllocsPerRun(10, func() { e.stepCursor(0, states) }); n != 0 {
				t.Errorf("phase %d (%v): a tick whose status reads the same allocates %v times", i, ps.Kind, n)
			}
			if unsafe.StringData(e.cursors[0].message) != unsafe.StringData(kept) {
				t.Errorf("phase %d (%v): an unchanged status text was made again", i, ps.Kind)
			}
			cases++
		}
	}
	if cases == 0 {
		t.Fatal("the classic exam has no phases")
	}

	// The tandem gate's text, on a two-crane spec: crane 0 holds its end
	// of the shared load and its partner does not.
	te, err := NewEngineSpec(tandemSpec(), crane.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	te.Start()
	pair := make([]fom.CraneState, 2)
	cases = 0
	for i := range te.spec.Phases {
		ps := &te.spec.Phases[i]
		if ps.Kind != PhaseLift || !ps.Tandem {
			continue
		}
		te.cursors[0] = cursor{idx: i}
		pair[0] = fom.CraneState{CargoHeld: true, CargoID: int64(ps.Cargo)}
		pair[1] = fom.CraneState{CargoID: -1}
		want := fmt.Sprintf("holding %s — waiting for partner hooks (%d/%d)",
			te.cargoName(ps.Cargo), 1, te.spec.Cargos[ps.Cargo].HooksNeeded())
		te.stepCursor(0, pair)
		if got := te.cursors[0].message; got != want {
			t.Errorf("tandem phase %d: status %q, want %q", i, got, want)
		}
		kept := te.cursors[0].message
		if n := testing.AllocsPerRun(10, func() { te.stepCursor(0, pair) }); n != 0 {
			t.Errorf("tandem phase %d: a tick whose status reads the same allocates %v times", i, n)
		}
		if unsafe.StringData(te.cursors[0].message) != unsafe.StringData(kept) {
			t.Errorf("tandem phase %d: an unchanged status text was made again", i)
		}
		cases++
	}
	if cases == 0 {
		t.Fatal("the tandem spec has no tandem lift")
	}
}
