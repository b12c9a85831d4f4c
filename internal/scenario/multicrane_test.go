package scenario

import (
	"strings"
	"testing"

	"codsim/internal/crane"
	"codsim/internal/fom"
	"codsim/internal/mathx"
)

// tandemSpec builds a minimal valid two-crane tandem spec for tests.
func tandemSpec() Spec {
	c := DefaultCourse()
	c.Bars = nil
	beam := c.Circle
	return Spec{
		Name:   "test-tandem",
		Title:  "Test tandem",
		Course: c,
		Cranes: []CraneDecl{
			{Name: "a", Start: c.Start, StartYaw: c.StartYaw},
			{Name: "b", Start: c.Start.Add(mathx.V3(10, 0, 0))},
		},
		Cargos: []Cargo{{Name: "beam", Pos: beam, Mass: 3000, Hooks: 2}},
		Phases: []PhaseSpec{
			{Name: "a-spot", Kind: PhaseDrive, Crane: 0, Target: beam.Add(mathx.V3(0, 0, 9)), Radius: 4},
			{Name: "b-spot", Kind: PhaseDrive, Crane: 1, Target: beam.Add(mathx.V3(0, 0, -9)), Radius: 4},
			{Name: "a-hook", Kind: PhaseLift, Crane: 0, Cargo: 0, Tandem: true},
			{Name: "b-hook", Kind: PhaseLift, Crane: 1, Cargo: 0, Tandem: true},
			{Name: "a-set", Kind: PhasePlace, Crane: 0, Target: beam.Add(mathx.V3(6, 0, 0)), Radius: 3},
			{Name: "b-set", Kind: PhasePlace, Crane: 1, Target: beam.Add(mathx.V3(6, 0, 0)), Radius: 3},
		},
	}
}

func TestMultiCraneValidate(t *testing.T) {
	if err := tandemSpec().Validate(); err != nil {
		t.Fatalf("valid tandem spec rejected: %v", err)
	}

	breakSpec := func(mutate func(*Spec)) error {
		s := tandemSpec()
		mutate(&s)
		return s.Validate()
	}
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"crane index out of range", func(s *Spec) { s.Phases[0].Crane = 2 }, "crane index"},
		{"negative crane index", func(s *Spec) { s.Phases[0].Crane = -1 }, "crane index"},
		{"tandem with one crane", func(s *Spec) {
			// Only crane 0 ever lifts the beam: the other tandem node is
			// retargeted to a single-hook crate, so the beam waits for a
			// partner that never comes.
			s.Cargos = append(s.Cargos, Cargo{Name: "crate", Pos: s.Cargos[0].Pos, Mass: 500})
			s.Phases[3].Cargo = 1
			s.Phases[3].Tandem = false
		}, "tandem cranes"},
		{"hooks exceed declared cranes", func(s *Spec) { s.Cargos[0].Hooks = 3 }, "crane(s) declared"},
		{"tandem node on single-hook cargo", func(s *Spec) { s.Cargos[0].Hooks = 1 }, "single-hook"},
		{"multi-hook cargo without tandem node", func(s *Spec) { s.Phases[2].Tandem = false }, "tandem node"},
		{"tandem on a drive node", func(s *Spec) { s.Phases[0].Tandem = true }, "tandem on a"},
		{"next crosses cranes", func(s *Spec) { s.Phases[2].Next = 3 }, "belongs to crane"},
		{"declared crane without phases", func(s *Spec) {
			s.Cranes = append(s.Cranes, CraneDecl{Name: "idle"})
			s.Cargos[0].Hooks = 2 // still satisfiable
		}, "declares no phases"},
		{"legacy spec with out-of-range crane", func(s *Spec) {
			s.Cranes = nil
			for i := range s.Phases {
				s.Phases[i].Crane = 0
				s.Phases[i].Tandem = false
			}
			s.Cargos[0].Hooks = 0
			s.Phases[1].Crane = 1
		}, "crane index"},
	}
	for _, tc := range cases {
		err := breakSpec(tc.mutate)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestCraneDeclsLegacyDefault(t *testing.T) {
	s := Classic()
	if n := s.CraneCount(); n != 1 {
		t.Fatalf("legacy CraneCount = %d", n)
	}
	decls := s.CraneDecls()
	if len(decls) != 1 || decls[0].Start != s.Course.Start || decls[0].StartYaw != s.Course.StartYaw {
		t.Fatalf("legacy decls = %+v", decls)
	}
	if n := tandemSpec().CraneCount(); n != 2 {
		t.Fatalf("tandem CraneCount = %d", n)
	}
}

func TestPerCraneGraphResolution(t *testing.T) {
	s := tandemSpec()
	// next skips the other crane's interleaved nodes.
	if got := s.next(0); got != 2 {
		t.Errorf("next(0) = %d, want 2 (crane 0's lift)", got)
	}
	if got := s.next(1); got != 3 {
		t.Errorf("next(1) = %d, want 3 (crane 1's lift)", got)
	}
	if got := s.next(4); got != Terminal {
		t.Errorf("next(4) = %d, want Terminal", got)
	}
	// Entry nodes per crane.
	if e, ok := s.EntryFor(1); !ok || e != 1 {
		t.Errorf("EntryFor(1) = %d,%v", e, ok)
	}
	// Drop fallback stays within the crane.
	if j, ok := s.fallbackLift(5); !ok || j != 3 {
		t.Errorf("fallbackLift(5) = %d,%v, want crane 1's lift (3)", j, ok)
	}
}

// TestEngineTandemGate drives the engine with synthetic telemetry: the
// first hook alone must not advance past the tandem lift; both hooks
// latched advance both cursors; the combined verdict waits for both
// cranes to finish.
func TestEngineTandemGate(t *testing.T) {
	s := tandemSpec()
	e, err := NewEngineSpec(s, crane.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()

	mk := func(c int) fom.CraneState {
		target := s.Phases[c].Target // crane c's drive spot
		return fom.CraneState{
			Position: target,
			HookPos:  mathx.V3(0, 50, 0), // far from the bars and the beam
			CargoPos: s.Cargos[0].Pos,
			CargoID:  -1,
			CraneID:  int64(c),
		}
	}
	states := []fom.CraneState{mk(0), mk(1)}
	e.StepAll(states, 0.1) // both drives complete
	if p0 := e.StateFor(0).PhaseIndex; p0 != 2 {
		t.Fatalf("crane 0 at node %d, want its lift (2): %q", p0, e.StateFor(0).Message)
	}
	if p1 := e.StateFor(1).PhaseIndex; p1 != 3 {
		t.Fatalf("crane 1 at node %d, want its lift (3)", p1)
	}

	// One hook latched: the tandem gate must hold both cursors.
	states[0].CargoHeld = true
	states[0].CargoID = 0
	e.StepAll(states, 0.1)
	if p0 := e.StateFor(0).PhaseIndex; p0 != 2 {
		t.Fatalf("single hook advanced the tandem lift to node %d", p0)
	}
	if msg := e.StateFor(0).Message; !strings.Contains(msg, "waiting for partner") {
		t.Errorf("crane 0 message %q lacks the partner wait", msg)
	}

	// Second hook on: both cursors advance to their place nodes.
	states[1].CargoHeld = true
	states[1].CargoID = 0
	e.StepAll(states, 0.1)
	if p0, p1 := e.StateFor(0).PhaseIndex, e.StateFor(1).PhaseIndex; p0 != 4 || p1 != 5 {
		t.Fatalf("after both hooks: cursors at %d/%d, want 4/5", p0, p1)
	}

	// Crane 0 sets down inside the pad; the run must wait for crane 1.
	pad := s.Phases[4].Target
	states[0].CargoHeld = false
	states[0].CargoID = -1
	states[0].CargoPos = pad
	states[1].CargoPos = pad
	e.StepAll(states, 0.1)
	if ph := e.Phase(); ph == fom.PhaseComplete || ph == fom.PhaseFailed {
		t.Fatalf("run ended with crane 1 still placing (phase %v)", ph)
	}
	if st0 := e.StateFor(0); st0.Phase != fom.PhaseComplete {
		t.Errorf("finished crane 0 reports %v", st0.Phase)
	}

	// Crane 1 releases too: collective verdict.
	states[1].CargoHeld = false
	states[1].CargoID = -1
	e.StepAll(states, 0.1)
	if ph := e.Phase(); ph != fom.PhaseComplete {
		t.Fatalf("run phase %v, want complete (%q)", ph, e.State().Message)
	}
}

// TestCollisionDebouncePerCrane pins the episode accounting across
// cranes: one crane resting against a bar for many ticks is a single
// contact episode, and a contact-free partner crane's judging pass must
// not end (and instantly re-count) it.
func TestCollisionDebouncePerCrane(t *testing.T) {
	s := tandemSpec()
	s.Course.Bars = []Bar{{
		Name: "bar-A",
		Pos:  s.Course.Circle.Add(mathx.V3(0, 1.2, 4)),
		Half: mathx.V3(0.15, 1.2, 1.5),
	}}
	e, err := NewEngineSpec(s, crane.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()

	far := mathx.V3(0, 50, 0)
	inBar := s.Course.Bars[0].Pos
	states := []fom.CraneState{
		{Position: s.Phases[0].Target, HookPos: inBar, CargoPos: far, CargoID: -1, Stability: 1},
		{Position: far, HookPos: far, CargoPos: far, CargoID: -1, CraneID: 1, Stability: 1},
	}
	for i := 0; i < 30; i++ { // one second of sustained contact at 30 Hz
		e.StepAll(states, 1.0/30)
	}
	if got := e.State().Collisions; got != 1 {
		t.Fatalf("sustained one-crane contact counted %d episodes, want 1", got)
	}

	// Contact ends and resumes: that is a second episode.
	states[0].HookPos = far
	e.StepAll(states, 1.0/30)
	states[0].HookPos = inBar
	e.StepAll(states, 1.0/30)
	if got := e.State().Collisions; got != 2 {
		t.Fatalf("re-contact counted %d episodes, want 2", got)
	}
}

// TestEngineStateForSharesVerdict pins the per-crane state contract: one
// state per crane with its own CraneID, shared score/elapsed, and the
// collective terminal verdict mirrored everywhere.
func TestEngineStateForSharesVerdict(t *testing.T) {
	e, err := NewEngineSpec(tandemSpec(), crane.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	if n := e.CraneCount(); n != 2 {
		t.Fatalf("CraneCount() = %d", n)
	}
	for c := range e.CraneCount() {
		st := e.StateFor(c)
		if st.CraneID != int64(c) {
			t.Errorf("state %d CraneID = %d", c, st.CraneID)
		}
		if st.Phase != fom.PhaseIdle {
			t.Errorf("state %d idle phase = %v", c, st.Phase)
		}
	}
}

// TestTandemDropChoreographyReset pins the ROADMAP drop-recovery rule:
// when one crane drops its end of a tandem load mid-carry, BOTH cursors
// fall back to their tandem lift gates together — the partner must not
// keep a waypoint far down the sequence the dropper can no longer reach.
func TestTandemDropChoreographyReset(t *testing.T) {
	s := tandemSpec()
	e, err := NewEngineSpec(s, crane.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()

	mk := func(c int) fom.CraneState {
		return fom.CraneState{
			Position: s.Phases[c].Target,
			HookPos:  mathx.V3(0, 50, 0),
			CargoPos: s.Cargos[0].Pos,
			CargoID:  -1,
			CraneID:  int64(c),
		}
	}
	states := []fom.CraneState{mk(0), mk(1)}
	e.StepAll(states, 0.1) // both drives complete → both at tandem lifts
	for c := range states {
		states[c].CargoHeld = true
		states[c].CargoID = 0
	}
	e.StepAll(states, 0.1) // gate opens → both at their place nodes
	if p0, p1 := e.StateFor(0).PhaseIndex, e.StateFor(1).PhaseIndex; p0 != 4 || p1 != 5 {
		t.Fatalf("carry cursors at %d/%d, want 4/5", p0, p1)
	}

	// Crane 0 fumbles the load far outside the pad; crane 1 still holds
	// its end.
	before := e.Score()
	states[0].CargoHeld = false
	states[0].CargoID = -1
	events := e.StepAll(states, 0.1)
	changed := map[int]bool{}
	for _, ev := range events {
		if ev.Kind == EventPhaseChange {
			changed[ev.Crane] = true
		}
	}
	if !changed[0] || !changed[1] {
		t.Errorf("phase-change events cover cranes %v, want both (partner reset must be recorded)", changed)
	}
	if p0 := e.StateFor(0).PhaseIndex; p0 != 2 {
		t.Fatalf("dropper at node %d, want its tandem lift (2)", p0)
	}
	if p1 := e.StateFor(1).PhaseIndex; p1 != 3 {
		t.Fatalf("partner at node %d, want choreography reset to its tandem lift (3): %q",
			p1, e.StateFor(1).Message)
	}
	if e.Score() >= before {
		t.Errorf("drop cost no score (%.1f → %.1f)", before, e.Score())
	}
	// Same-tick stepping already re-judges the reset cursor: the partner
	// still holds its hook, so it reports the reopened tandem gate.
	if msg := e.StateFor(1).Message; !strings.Contains(msg, "waiting for partner hooks") {
		t.Errorf("partner message %q does not show the reopened gate", msg)
	}

	// Recovery: the dropper re-latches, the gate opens again, and the
	// choreography resumes from the lift.
	states[0].CargoHeld = true
	states[0].CargoID = 0
	e.StepAll(states, 0.1)
	if p0, p1 := e.StateFor(0).PhaseIndex, e.StateFor(1).PhaseIndex; p0 != 4 || p1 != 5 {
		t.Fatalf("after re-latch cursors at %d/%d, want 4/5", p0, p1)
	}
}

// TestTandemDropLeavesRetiredPartnerAlone: a partner that already set the
// shared load down and retired its sub-graph is not dragged back when the
// other crane later drops a different (single-hook) load.
func TestTandemDropLeavesRetiredPartnerAlone(t *testing.T) {
	s := tandemSpec()
	// Crane 0 carries on after the tandem set-down with a solo crate.
	s.Cargos = append(s.Cargos, Cargo{Name: "crate", Pos: s.Course.Circle.Add(mathx.V3(-8, 0, 0)), Mass: 500})
	s.Phases = append(s.Phases,
		PhaseSpec{Name: "a-crate", Kind: PhaseLift, Crane: 0, Cargo: 1},
		PhaseSpec{Name: "a-crate-set", Kind: PhasePlace, Crane: 0, Target: s.Course.Circle.Add(mathx.V3(-14, 0, 0)), Radius: 3},
	)
	e, err := NewEngineSpec(s, crane.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	e.Start()

	mk := func(c int) fom.CraneState {
		return fom.CraneState{
			Position: s.Phases[c].Target,
			HookPos:  mathx.V3(0, 50, 0),
			CargoPos: s.Cargos[0].Pos,
			CargoID:  -1,
			CraneID:  int64(c),
		}
	}
	states := []fom.CraneState{mk(0), mk(1)}
	e.StepAll(states, 0.1)
	for c := range states {
		states[c].CargoHeld = true
		states[c].CargoID = 0
	}
	e.StepAll(states, 0.1) // both carrying to their pads
	pad := s.Phases[4].Target
	for c := range states {
		states[c].CargoHeld = false
		states[c].CargoID = -1
		states[c].CargoPos = pad
	}
	e.StepAll(states, 0.1) // tandem load set down; crane 1 retires
	if st1 := e.StateFor(1); st1.Phase != fom.PhaseComplete {
		t.Fatalf("crane 1 not retired: %v %q", st1.Phase, st1.Message)
	}

	// Crane 0 lifts the solo crate, then fumbles it: only crane 0 falls
	// back, to the crate lift — not to the tandem gate — and crane 1
	// stays retired.
	states[0].CargoHeld = true
	states[0].CargoID = 1
	e.StepAll(states, 0.1)
	states[0].CargoHeld = false
	states[0].CargoID = -1
	states[0].CargoPos = s.Cargos[1].Pos
	e.StepAll(states, 0.1)
	if p0 := e.StateFor(0).PhaseIndex; p0 != 6 {
		t.Fatalf("solo dropper at node %d, want the crate lift (6)", p0)
	}
	if st1 := e.StateFor(1); st1.Phase != fom.PhaseComplete {
		t.Errorf("retired partner disturbed by a solo drop: %v", st1.Phase)
	}
}
