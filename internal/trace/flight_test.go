package trace

import (
	"testing"

	"codsim/internal/fom"
	"codsim/internal/scenario"
)

// TestFlightTickAllocatesNothing is the 0-alloc contract of the headless
// kernel inside `go test`: a whole flight, in windows of a thousand ticks,
// one crane and two on a shared world. The few strings a phase entry
// formats average out of a window; anything per tick does not.
func TestFlightTickAllocatesNothing(t *testing.T) {
	for _, spec := range []scenario.Spec{scenario.Classic(), scenario.TandemBeam()} {
		fl, err := NewFlight(spec, SkillProfile{})
		if err != nil {
			t.Fatal(err)
		}
		for !fl.Done() && fl.SimTime < 900 {
			at := fl.SimTime
			if n := testing.AllocsPerRun(1000, fl.Tick); n != 0 {
				t.Errorf("%s: %.0f allocs per tick in the 1000 ticks from %.0f sim-s", spec.Name, n, at)
			}
		}
		if fl.Engine.Phase() != fom.PhaseComplete {
			t.Errorf("%s: flight ended %v", spec.Name, fl.Engine.Phase())
		}
	}
}
