package trace

import (
	"math"

	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/terrain"
)

// Dt is the headless tick: the dynamics LP's 60 Hz.
const Dt = 1.0 / 60

// Flight is one headless flight of a scenario: the spec's rig on the
// shared default site and one autopilot per declared crane, coupled
// directly — no federation between them. Tick is the whole kernel; what a
// caller adds around it (a budget, a stall window, a status window, a
// hash over States) is policy. Not safe for concurrent use.
type Flight struct {
	scenario.Rig
	Pilots []*Autopilot
	// States[c] is crane c's state after the latest tick — what its pilot
	// reads on the next one and what the engine was last stepped with.
	States []fom.CraneState
	// Ticks counts the steps flown; SimTime is their simulated seconds,
	// accumulated a Dt at a time so it matches a loop that counts in
	// seconds bit for bit.
	Ticks   int
	SimTime float64
}

// NewFlight builds spec's rig, seats a pilot of the given skill on every
// crane (the zero profile is the expert) and starts the scenario. The
// engine runs with live status text off — messages still mark every phase
// transition, they just skip the per-tick distance refresh; a caller
// showing them to a person turns it back on through Engine.
func NewFlight(spec scenario.Spec, skill SkillProfile) (*Flight, error) {
	f := new(Flight)
	return f, f.reset(spec, skill)
}

// reset rebuilds f for a new flight, keeping the pilot and state slices.
func (f *Flight) reset(spec scenario.Spec, skill SkillProfile) error {
	rig, err := scenario.NewRig(spec, terrain.DefaultMap())
	if err != nil {
		return err
	}
	n := len(rig.Models)
	if cap(f.States) < n {
		f.Pilots = make([]*Autopilot, n)
		f.States = make([]fom.CraneState, n)
	}
	*f = Flight{Rig: rig, Pilots: f.Pilots[:n], States: f.States[:n]}
	for c, m := range rig.Models {
		f.Pilots[c] = ForCrane(spec, c)
		f.Pilots[c].SetSkill(skill)
		m.StateTo(&f.States[c])
	}
	f.Engine.SetLiveStatus(false)
	f.Engine.Start()
	return nil
}

// Done reports whether the scenario has reached a terminal phase.
func (f *Flight) Done() bool {
	p := f.Engine.Phase()
	return p == fom.PhaseComplete || p == fom.PhaseFailed
}

// Tick advances the flight one step: every pilot reads its crane's state
// and scenario telemetry and answers with an input, the rig steps on it,
// and the engine judges the new states.
func (f *Flight) Tick() { f.TickWith(nil) }

// TickWith is Tick with a hand on the controls: seat, when non-nil, is
// given crane c's pilot input and returns what the rig steps on instead (a
// recorder returns it unchanged, a replay returns the recorded frame, a
// careless trainee pays the cable out). States still holds the pre-step
// states while seat runs. The input goes in and out by value so it stays
// on the stack: Tick allocates nothing. The crane states stay in place:
// the pilot reads States[c] and the model writes it, neither copies it.
func (f *Flight) TickWith(seat func(c int, in fom.ControlInput) fom.ControlInput) {
	for c, m := range f.Models {
		scen := f.Engine.StateFor(c)
		in := f.Pilots[c].control(&f.States[c], &scen, Dt)
		in.CraneID = int64(c)
		if seat != nil {
			in = seat(c, in)
		}
		m.Step(in, Dt)
		m.StateTo(&f.States[c])
	}
	f.Engine.StepAll(f.States, Dt)
	f.Ticks++
	f.SimTime += Dt
}

// DefaultBudget is the sim-time budget of a headless run nobody budgeted:
// three par times, at least 900 simulated seconds.
func DefaultBudget(spec scenario.Spec) float64 {
	return math.Max(3*spec.Course.ParTime, 900)
}
