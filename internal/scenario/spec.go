package scenario

import (
	"fmt"
	"slices"

	"codsim/internal/crane"
	"codsim/internal/dynamics"
	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/terrain"
)

// PhaseKind classifies one node of a scenario's phase graph. The engine
// interprets the kind; the FOM's coarse fom.Phase published on the wire is
// derived from it, so existing consumers (status window, audio, displays)
// keep working for any scenario.
type PhaseKind int

// Phase kinds. Values start at 1; 0 is invalid.
const (
	// PhaseDrive: drive the carrier to Target within Radius.
	PhaseDrive PhaseKind = iota + 1
	// PhaseLift: latch and raise the cargo indexed by Cargo.
	PhaseLift
	// PhaseTraverse: carry the held cargo through Waypoints (gate radius
	// Radius); dropping the cargo falls back to the preceding lift.
	PhaseTraverse
	// PhasePlace: set the held cargo down and release it within Radius of
	// Target.
	PhasePlace
)

var phaseKindNames = map[PhaseKind]string{
	PhaseDrive:    "drive",
	PhaseLift:     "lift",
	PhaseTraverse: "traverse",
	PhasePlace:    "place",
}

// String returns the lowercase kind name.
func (k PhaseKind) String() string {
	if s, ok := phaseKindNames[k]; ok {
		return s
	}
	return "unknown"
}

// FOMPhase maps the kind onto the coarse wire-level phase enum.
func (k PhaseKind) FOMPhase() fom.Phase {
	switch k {
	case PhaseDrive:
		return fom.PhaseDriving
	case PhaseLift:
		return fom.PhaseLifting
	case PhaseTraverse:
		return fom.PhaseTraverse
	case PhasePlace:
		return fom.PhaseReturn
	}
	return fom.PhaseIdle
}

// PhaseSpec is one node of the phase graph.
type PhaseSpec struct {
	Name string // short label for logs and reports
	Kind PhaseKind

	// Target and Radius parameterize drive and place phases; Radius is
	// also the gate radius of a traverse.
	Target mathx.Vec3
	Radius float64

	// Waypoints is the trajectory of a traverse phase.
	Waypoints []mathx.Vec3

	// Cargo indexes Spec.Cargos for a lift phase.
	Cargo int

	// Crane indexes Spec.Cranes: the carrier this node belongs to. Each
	// declared crane walks its own sub-graph — the list entries carrying
	// its index — with an independent cursor. The zero value is crane 0,
	// so single-crane scenarios need no wiring.
	Crane int

	// Tandem marks a lift of a multi-hook cargo (Cargo.Hooks >= 2): the
	// node completes only once every needed hook is latched, so the crane
	// that latches first holds and waits for its partners before the
	// shared load leaves the ground.
	Tandem bool

	// Next is the phase index entered when this phase completes. The zero
	// value means "the next phase of the same crane in the list" (so
	// plain linear scenarios need no wiring); Terminal ends this crane's
	// graph — the scenario's pass/fail evaluation runs once every
	// declared crane is done. Explicit jumps to phase 0 are not
	// representable — phase 0 is always an entry node.
	Next int
}

// Terminal is the Next sentinel that ends the scenario after a phase.
const Terminal = -1

// Cargo is one liftable load placed in the world at scenario start.
type Cargo struct {
	Name string
	Pos  mathx.Vec3 // resting position; Y is recomputed from the terrain
	Mass float64    // kg

	// Hooks is how many crane hooks must latch before the load leaves
	// the ground (a long beam needs a crane on each end). 0 means 1; a
	// value >= 2 makes this a tandem load: it may only be lifted through
	// Tandem phase nodes, the load splits evenly between the cables, and
	// the carried position is the mean of the holding hooks.
	Hooks int
}

// HooksNeeded returns the cargo's hook requirement, defaulted to 1.
func (c Cargo) HooksNeeded() int {
	if c.Hooks < 1 {
		return 1
	}
	return c.Hooks
}

// CraneDecl declares one carrier of a multi-crane scenario: where it
// starts and which way it faces. Phase nodes reference cranes by their
// index in Spec.Cranes.
type CraneDecl struct {
	Name     string // label for logs and reports; optional
	Start    mathx.Vec3
	StartYaw float64
}

// Spec is a complete declarative scenario: the engine interprets it, the
// autopilot can fly it, and the cluster loads it — nothing about a
// particular workload is hardcoded anywhere else.
type Spec struct {
	// Name is the library key (kebab-case); Title the human heading.
	Name  string
	Title string

	// Course is the site geometry: start pose, obstruction bars, and the
	// circle zone. Phase targets live in Phases, not here.
	Course Course

	// Cranes declares the scenario's carriers. Empty means the legacy
	// single crane starting at Course.Start/StartYaw — every Spec written
	// before the multi-crane revision keeps working unchanged. With N
	// declarations the federation spawns one dynamics/motion/autopilot
	// participant per crane and each crane walks its own sub-graph of
	// Phases (the nodes carrying its index).
	Cranes []CraneDecl

	// Cargos are the liftable loads placed at scenario start.
	Cargos []Cargo

	// Phases is the phase graph, entered at index 0.
	Phases []PhaseSpec

	// Score is the deduction schedule; the zero value means DefaultScore.
	Score ScoreConfig

	// Wind is the site wind disturbance threaded into the dynamics.
	Wind dynamics.Wind

	// Visibility darkens the displays: 1 (or 0, the zero value) is full
	// daylight, lower values approach night work.
	Visibility float64
}

// CraneCount returns how many carriers the scenario runs: the declared
// count, or 1 for a legacy spec with no Cranes block.
func (s Spec) CraneCount() int {
	if len(s.Cranes) == 0 {
		return 1
	}
	return len(s.Cranes)
}

// CraneDecls resolves the carrier declarations: the explicit Cranes
// block, or the implicit legacy single crane parked at the course start.
func (s Spec) CraneDecls() []CraneDecl {
	if len(s.Cranes) == 0 {
		return []CraneDecl{{Start: s.Course.Start, StartYaw: s.Course.StartYaw}}
	}
	return s.Cranes
}

// Validate reports structural errors in the spec. Every phase-level error
// names the offending phase index and its crane index, so a rejected
// generated or hand-written spec is actionable from the message alone —
// no need to dump the JSON to find the bad node.
//
// The "preceding lift" requirement on traverse and place nodes is checked
// in list order within each crane's sub-graph, deliberately matching the
// drop edge's runtime semantics: fallbackLift scans the phase LIST
// backwards from the active node, not the Next-graph, so a lift that only
// precedes a traverse via Next jumps would still leave the drop edge with
// nowhere to go (a per-tick deduction loop). List order is therefore the
// invariant that makes every reachable drop recoverable, whatever the
// jump structure.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario %q: empty name", s.Title)
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("scenario %s: no phases", s.Name)
	}
	nCranes := s.CraneCount()
	for ci, c := range s.Cargos {
		if c.Hooks < 0 {
			return fmt.Errorf("scenario %s: cargo %d: hooks %d", s.Name, ci, c.Hooks)
		}
		if c.HooksNeeded() > nCranes {
			return fmt.Errorf("scenario %s: cargo %d needs %d hooks but only %d crane(s) declared",
				s.Name, ci, c.HooksNeeded(), nCranes)
		}
	}
	// Per-crane tallies; for up to eight cranes they stay on the stack,
	// so a valid spec validates without allocating.
	var seenBuf [8]bool
	var ownedBuf [8]int
	liftSeen := append(seenBuf[:0], make([]bool, nCranes)...)
	owned := append(ownedBuf[:0], make([]int, nCranes)...)
	for i, p := range s.Phases {
		if p.Crane < 0 || p.Crane >= nCranes {
			return fmt.Errorf("scenario %s: phase %d: crane index %d of %d", s.Name, i, p.Crane, nCranes)
		}
		owned[p.Crane]++
		if p.Tandem && p.Kind != PhaseLift {
			return phaseError(s.Name, i, p.Crane, "tandem on a %s node (lift only)", p.Kind)
		}
		switch p.Kind {
		case PhaseDrive:
			if p.Radius <= 0 {
				return phaseError(s.Name, i, p.Crane, "%s radius %v", p.Kind, p.Radius)
			}
		case PhasePlace:
			if p.Radius <= 0 {
				return phaseError(s.Name, i, p.Crane, "%s radius %v", p.Kind, p.Radius)
			}
			// The drop edge falls back to the nearest preceding lift of
			// the same crane; without one the engine would deduct every
			// tick forever.
			if !liftSeen[p.Crane] {
				return phaseError(s.Name, i, p.Crane, "place with no preceding lift")
			}
		case PhaseLift:
			if p.Cargo < 0 || p.Cargo >= len(s.Cargos) {
				return phaseError(s.Name, i, p.Crane, "cargo index %d of %d", p.Cargo, len(s.Cargos))
			}
			hooks := s.Cargos[p.Cargo].HooksNeeded()
			switch {
			case p.Tandem && hooks < 2:
				return phaseError(s.Name, i, p.Crane, "tandem lift of single-hook cargo %d", p.Cargo)
			case !p.Tandem && hooks >= 2:
				return phaseError(s.Name, i, p.Crane, "cargo %d needs %d hooks — lift it with a tandem node", p.Cargo, hooks)
			}
			liftSeen[p.Crane] = true
		case PhaseTraverse:
			if len(p.Waypoints) == 0 {
				return phaseError(s.Name, i, p.Crane, "traverse without waypoints")
			}
			if p.Radius <= 0 {
				return phaseError(s.Name, i, p.Crane, "gate radius %v", p.Radius)
			}
			if !liftSeen[p.Crane] {
				return phaseError(s.Name, i, p.Crane, "traverse with no preceding lift")
			}
		default:
			return phaseError(s.Name, i, p.Crane, "unknown kind %d", p.Kind)
		}
		if p.Next != 0 && p.Next != Terminal {
			if p.Next <= 0 || p.Next >= len(s.Phases) {
				return phaseError(s.Name, i, p.Crane, "next %d out of graph", p.Next)
			}
			if s.Phases[p.Next].Crane != p.Crane {
				return phaseError(s.Name, i, p.Crane, "next %d belongs to crane %d", p.Next, s.Phases[p.Next].Crane)
			}
		}
	}
	// A tandem load needs a full complement of lifters: a tandem node
	// whose cargo only one crane ever lifts would wait for a partner that
	// never comes. By now every tandem node is a lift of a multi-hook
	// cargo.
	for ci, c := range s.Cargos {
		if need := c.HooksNeeded(); need >= 2 {
			if n := tandemLifters(s.Phases, ci); n > 0 && n < need {
				return fmt.Errorf("scenario %s: cargo %d needs %d tandem cranes but %d lift it",
					s.Name, ci, need, n)
			}
		}
	}
	// Declared cranes must all take part — an idle carrier declaration is
	// almost certainly a mis-indexed phase.
	for c, n := range owned {
		if n == 0 && len(s.Cranes) > 0 {
			return fmt.Errorf("scenario %s: crane %d declares no phases", s.Name, c)
		}
	}
	if s.Visibility < 0 || s.Visibility > 1 {
		return fmt.Errorf("scenario %s: visibility %v", s.Name, s.Visibility)
	}
	return nil
}

// tandemLifters counts the distinct cranes that lift cargo ci through a
// tandem node of phases.
func tandemLifters(phases []PhaseSpec, ci int) int {
	n := 0
	for j, p := range phases {
		if p.Tandem && p.Cargo == ci && !slices.ContainsFunc(phases[:j], func(q PhaseSpec) bool {
			return q.Tandem && q.Cargo == ci && q.Crane == p.Crane
		}) {
			n++
		}
	}
	return n
}

// phaseError is Validate's error for phase i, a node of crane's
// sub-graph: every node-level message leads with both indices. It is
// formatted only on the way out, so a valid spec costs no formatting.
func phaseError(name string, i, crane int, format string, args ...any) error {
	return fmt.Errorf("scenario %s: phase %d (crane %d): %s", name, i, crane, fmt.Sprintf(format, args...))
}

// next resolves the successor of phase i: the explicit Next, or the next
// list entry belonging to the same crane, or Terminal when the crane's
// sub-graph ends.
func (s Spec) next(i int) int {
	p := s.Phases[i]
	if p.Next != 0 {
		return p.Next
	}
	for j := i + 1; j < len(s.Phases); j++ {
		if s.Phases[j].Crane == p.Crane {
			return j
		}
	}
	return Terminal
}

// EntryFor returns the first phase node of a crane's sub-graph. ok is
// false when the crane owns no nodes (Validate rejects that for declared
// cranes).
func (s Spec) EntryFor(crane int) (int, bool) {
	for i, p := range s.Phases {
		if p.Crane == crane {
			return i, true
		}
	}
	return 0, false
}

// fallbackLift returns the nearest same-crane lift phase at or before i —
// where a traverse or place returns after the cargo is dropped. ok is
// false when no lift precedes i.
func (s Spec) fallbackLift(i int) (int, bool) {
	for j := i; j >= 0; j-- {
		if s.Phases[j].Kind == PhaseLift && s.Phases[j].Crane == s.Phases[i].Crane {
			return j, true
		}
	}
	return 0, false
}

// score returns the spec's deduction schedule, defaulted.
func (s Spec) score() ScoreConfig {
	if s.Score == (ScoreConfig{}) {
		return DefaultScore()
	}
	return s.Score
}

// Rig is the physical and judging side of one scenario on one site: a
// dynamics model per declared crane, all latching out of one shared cargo
// world, and the engine that scores them. Models[c] is crane c.
type Rig struct {
	Models []*dynamics.Model
	Engine *Engine
}

// NewRig builds the spec's rig on the terrain: one default-configured
// crane per entry of CraneDecls over a fresh shared world, the spec
// installed into it, and an idle engine (call Start). Every host of a
// scenario — the sim PC's LPs on its seeded site, trace.Flight on the
// default map — builds through here, so one world per site and one model
// per declaration hold by construction.
func NewRig(spec Spec, ter *terrain.Map) (Rig, error) {
	decls := spec.CraneDecls()
	world := dynamics.NewWorld()
	models := make([]*dynamics.Model, len(decls))
	for c, d := range decls {
		m, err := dynamics.NewCrane(dynamics.DefaultConfig(), ter, world, d.Start, d.StartYaw, c)
		if err != nil {
			return Rig{}, fmt.Errorf("crane %d: %w", c, err)
		}
		models[c] = m
	}
	spec.Install(ter, models...)
	eng, err := NewEngineSpec(spec, crane.DefaultSpec())
	if err != nil {
		return Rig{}, err
	}
	return Rig{Models: models, Engine: eng}, nil
}

// Install loads the spec's physical side into the rigs of one site: the
// wind disturbance onto every model and the cargo set into their shared
// world, each cargo resting on the terrain. NewRig is its caller; it stays
// exported for harnesses that time the rig's parts separately. All models
// must share one dynamics.World.
func (s Spec) Install(ter *terrain.Map, models ...*dynamics.Model) {
	if len(models) == 0 {
		return
	}
	w := models[0].World()
	w.Reset()
	for _, m := range models {
		m.SetWind(s.Wind)
	}
	for _, c := range s.Cargos {
		pos := c.Pos
		pos.Y = ter.HeightAt(pos.X, pos.Z) + 0.6
		w.AddCargoHooks(pos, c.Mass, c.HooksNeeded())
	}
}

// SpecFromCourse builds the classic linear exam graph — drive, lift,
// traverse, place back in the circle — from course geometry, preserving
// the original hardwired sequence as just another data point in the
// scenario space.
func SpecFromCourse(name, title string, c Course) Spec {
	return Spec{
		Name:   name,
		Title:  title,
		Course: c,
		Cargos: []Cargo{{Name: "cargo", Pos: c.Circle, Mass: c.CargoMass}},
		Phases: []PhaseSpec{
			{Name: "approach", Kind: PhaseDrive, Target: c.DriveTarget, Radius: c.DriveRadius},
			{Name: "lift", Kind: PhaseLift, Cargo: 0},
			{Name: "course", Kind: PhaseTraverse, Waypoints: c.Waypoints, Radius: c.WaypointRadius},
			{Name: "set-down", Kind: PhasePlace, Target: c.Circle, Radius: c.CircleRadius},
		},
	}
}
