package scenario

import (
	"fmt"
	"strconv"

	"codsim/internal/collision"
	"codsim/internal/crane"
	"codsim/internal/fom"
	"codsim/internal/mathx"
)

// ScoreConfig sets the exam's deduction schedule.
type ScoreConfig struct {
	Initial       float64 // starting score
	BarHit        float64 // deduction per bar contact episode (and per drop)
	SafetyAlarm   float64 // deduction per new safety-alarm episode
	OvertimePer10 float64 // deduction per 10 s beyond par time
	PassMark      float64 // minimum passing score
}

// DefaultScore returns the shipped schedule.
func DefaultScore() ScoreConfig {
	return ScoreConfig{
		Initial:       100,
		BarHit:        10,
		SafetyAlarm:   4,
		OvertimePer10: 0.5,
		PassMark:      60,
	}
}

// Event is a discrete scenario occurrence, surfaced for the audio module
// and the instructor log.
type Event struct {
	Kind  EventKind
	Bar   string  // for EventBarCollision
	At    float64 // scenario elapsed seconds
	Crane int     // crane the event belongs to (0 in single-crane runs)
}

// EventKind enumerates scenario events. Values start at 1; 0 is invalid.
type EventKind int

// Scenario events.
const (
	EventPhaseChange EventKind = iota + 1
	EventBarCollision
	EventAlarmRaised
)

// cursor is one crane's position in its sub-graph of the phase list.
type cursor struct {
	idx      int       // active phase-graph node
	waypoint int       // gate index within an active traverse
	phase    fom.Phase // this crane's coarse phase
	message  string
	done     bool // sub-graph reached Terminal
}

// Engine is the scenario state machine: an interpreter over a declarative
// Spec's phase graph, one cursor per declared crane. Not safe for
// concurrent use; it belongs to the scenario LP's tick loop.
type Engine struct {
	spec      Spec
	course    Course // == spec.Course, kept hot for the judge
	craneSpec crane.Spec
	cfg       ScoreConfig

	phase       fom.Phase // combined coarse phase (the wire-legacy view)
	cursors     []cursor  // one per crane; all must finish to end the run
	score       float64
	elapsed     float64
	collisions  uint32
	alarmEvents uint32 // alarm lamps raised (safety alarms + collisions)
	message     string // combined status text while idle/terminal

	world     *collision.World
	bars      []*collision.Object // static bar objects, indexed like course.Bars
	hookObjs  []*collision.Object // one dynamic proxy pair per crane
	cargoObjs []*collision.Object
	// barHit debounces contact episodes per crane, indexed [crane][bar]:
	// each crane's pass only clears its own entries, so one crane's
	// sustained contact is never ended (and instantly re-deducted) by a
	// contact-free partner.
	barHit [][]bool
	// contact is judgeCollisions' per-call scratch (indexed by bar),
	// reused so the 60 Hz judging loop allocates nothing.
	contact []bool
	lastAl  []fom.Alarm // per-crane alarm debounce
	alarms  fom.Alarm   // latched extra alarms (collision)
	// pending holds events raised outside a crane's own stepping turn —
	// the tandem choreography reset moves PARTNER cursors, whose
	// phase-change would otherwise escape StepAll's per-cursor check.
	pending []Event
	// events is StepAll's reusable result scratch; see StepAll's ownership
	// rule.
	events []Event
	// liveStatus refreshes cursor messages with live distances every tick
	// (instructor console); off, messages change only on phase entry,
	// keeping the formatting off the headless hot loop.
	liveStatus bool
	// text is where say's callers format a live status text.
	text []byte
	// progress counts cursor advances — phase-graph transitions and
	// traverse waypoints — since Start. The early-exit oracle polls it to
	// detect dry-runs that stopped making headway (see trace).
	progress uint64
}

// NewEngineSpec builds an engine interpreting the scenario spec.
func NewEngineSpec(spec Spec, craneSpec crane.Spec) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec.Score = spec.score()
	n := spec.CraneCount()
	e := &Engine{
		spec:       spec,
		course:     spec.Course,
		craneSpec:  craneSpec,
		cfg:        spec.Score,
		phase:      fom.PhaseIdle,
		cursors:    make([]cursor, n),
		score:      spec.Score.Initial,
		barHit:     make([][]bool, n),
		contact:    make([]bool, len(spec.Course.Bars)),
		lastAl:     make([]fom.Alarm, n),
		world:      &collision.World{},
		liveStatus: true,
	}
	for c := range e.barHit {
		e.barHit[c] = make([]bool, len(spec.Course.Bars))
	}
	for _, b := range spec.Course.Bars {
		obj := collision.NewObject(b.Name, collision.BoxMesh(b.Half.X, b.Half.Y, b.Half.Z))
		obj.SetPose(b.Pos, mathx.QuatAxisAngle(mathx.V3(0, 1, 0), -b.Yaw))
		e.world.Add(obj)
		e.bars = append(e.bars, obj)
	}
	for c := 0; c < n; c++ {
		hook := collision.NewObject(fmt.Sprintf("hook-%d", c), collision.BoxMesh(0.3, 0.35, 0.3))
		cargo := collision.NewObject(fmt.Sprintf("cargo-%d", c), collision.BoxMesh(0.9, 0.6, 0.9))
		e.world.Add(hook)
		e.world.Add(cargo)
		e.hookObjs = append(e.hookObjs, hook)
		e.cargoObjs = append(e.cargoObjs, cargo)
	}
	e.message = "engine off — start the engine and await the scenario"
	for c := range e.cursors {
		e.cursors[c].phase = fom.PhaseIdle
		e.cursors[c].message = e.message
	}
	return e, nil
}

// Spec returns the engine's scenario spec.
func (e *Engine) Spec() Spec { return e.spec }

// Course returns the engine's course geometry.
func (e *Engine) Course() Course { return e.course }

// Start begins the scenario (OpStartScenario): every crane's cursor
// enters its sub-graph.
func (e *Engine) Start() {
	if e.phase != fom.PhaseIdle {
		return
	}
	for c := range e.cursors {
		if entry, ok := e.spec.EntryFor(c); ok {
			e.enter(c, entry)
		} else {
			e.cursors[c].done = true
			e.cursors[c].phase = fom.PhaseComplete
		}
	}
	e.syncPhase()
}

// Reset returns the engine to the idle state with a fresh score.
func (e *Engine) Reset() {
	e.phase = fom.PhaseIdle
	e.score = e.cfg.Initial
	e.elapsed = 0
	e.collisions = 0
	e.alarmEvents = 0
	e.alarms = 0
	e.pending = e.pending[:0]
	e.progress = 0
	e.message = "reset — awaiting start"
	for c := range e.cursors {
		e.cursors[c] = cursor{phase: fom.PhaseIdle, message: e.message}
		e.lastAl[c] = 0
		for b := range e.barHit[c] {
			e.barHit[c][b] = false
		}
	}
}

// SetLiveStatus controls per-tick status text. On (the default) every
// step reformats cursor messages with live distances for the instructor
// console; off keeps only the phase-entry text, so the 60 Hz stepping
// path formats no strings. Verdicts, scores, events and phase cursors
// are identical either way.
func (e *Engine) SetLiveStatus(on bool) { e.liveStatus = on }

// Progress returns how many cursor advances (phase transitions and
// traverse waypoints, any crane) have happened since Start. A value that
// stops changing means no crane is making headway — the signal the
// early-exit oracle uses to abort hopeless dry-runs.
func (e *Engine) Progress() uint64 { return e.progress }

// enter moves crane c's cursor to phase-graph node i (or retires the
// cursor on Terminal; the scenario ends when every cursor has retired).
func (e *Engine) enter(c, i int) {
	cur := &e.cursors[c]
	e.progress++
	if i == Terminal {
		cur.done = true
		cur.phase = fom.PhaseComplete
		cur.message = "crane done — standing by"
		if e.allDone() {
			e.finish()
		}
		return
	}
	cur.idx = i
	cur.waypoint = 0
	ps := &e.spec.Phases[i]
	cur.phase = ps.Kind.FOMPhase()
	switch ps.Kind {
	case PhaseDrive:
		cur.message = fmt.Sprintf("drive to %s", phaseLabel(ps))
	case PhaseLift:
		cur.message = fmt.Sprintf("lift %s", e.cargoName(ps.Cargo))
	case PhaseTraverse:
		cur.message = fmt.Sprintf("carry the cargo through %s", phaseLabel(ps))
	case PhasePlace:
		cur.message = fmt.Sprintf("set the cargo down at %s", phaseLabel(ps))
	}
}

// allDone reports whether every crane's cursor has retired.
func (e *Engine) allDone() bool {
	for c := range e.cursors {
		if !e.cursors[c].done {
			return false
		}
	}
	return true
}

// lead returns the cursor the combined legacy view follows: the first
// crane still working, or the last cursor once everything retired.
func (e *Engine) lead() *cursor {
	for c := range e.cursors {
		if !e.cursors[c].done {
			return &e.cursors[c]
		}
	}
	return &e.cursors[len(e.cursors)-1]
}

// syncPhase recomputes the combined coarse phase from the lead cursor
// while the scenario runs (terminal phases are set by finish).
func (e *Engine) syncPhase() {
	if e.phase == fom.PhaseComplete || e.phase == fom.PhaseFailed {
		return
	}
	e.phase = e.lead().phase
}

func phaseLabel(ps *PhaseSpec) string {
	if ps.Name != "" {
		return ps.Name
	}
	return ps.Kind.String()
}

func (e *Engine) cargoName(i int) string {
	if i >= 0 && i < len(e.spec.Cargos) && e.spec.Cargos[i].Name != "" {
		return e.spec.Cargos[i].Name
	}
	return "the cargo"
}

// finish evaluates the terminal pass/fail verdict.
func (e *Engine) finish() {
	e.applyOvertime()
	if e.score < 0 {
		e.score = 0
	}
	if e.score >= e.cfg.PassMark {
		e.phase = fom.PhaseComplete
		e.message = fmt.Sprintf("%s passed — score %.1f", e.title(), e.score)
	} else {
		e.phase = fom.PhaseFailed
		e.message = fmt.Sprintf("%s failed — score %.1f", e.title(), e.score)
	}
}

func (e *Engine) title() string {
	if e.spec.Title != "" {
		return e.spec.Title
	}
	return "scenario"
}

// StepAll advances the scenario with one CraneState per declared crane,
// indexed by crane (states[c] drives cursor c; extra entries are
// ignored, missing ones freeze that crane's judging for the tick).
//
// The returned slice is the engine's reusable scratch: it is valid until
// the next StepAll call. Callers that retain events across ticks
// must copy them; all in-tree consumers drain the slice immediately.
func (e *Engine) StepAll(states []fom.CraneState, dt float64) []Event {
	if e.phase == fom.PhaseIdle || e.phase == fom.PhaseComplete || e.phase == fom.PhaseFailed {
		return nil
	}
	e.events = e.events[:0]
	prevPhase := e.phase
	e.elapsed += dt

	n := len(e.cursors)
	if len(states) < n {
		n = len(states)
	}

	// Collision judging runs in every active phase: move each crane's
	// dynamic proxies, find new contact episodes.
	for c := 0; c < n; c++ {
		e.hookObjs[c].SetPose(states[c].HookPos, mathx.QuatIdentity())
		e.cargoObjs[c].SetPose(states[c].CargoPos, mathx.QuatIdentity())
		e.judgeCollisions(c)
	}

	// Safety-alarm deductions on rising edges, per crane.
	for c := 0; c < n; c++ {
		al := e.craneSpec.Alarms(states[c])
		if newBits := al &^ e.lastAl[c]; newBits != 0 {
			e.score -= e.cfg.SafetyAlarm
			e.alarmEvents++
			e.events = append(e.events, Event{Kind: EventAlarmRaised, At: e.elapsed, Crane: c})
		}
		e.lastAl[c] = al
	}

	for c := 0; c < n; c++ {
		cur := &e.cursors[c]
		if cur.done {
			continue
		}
		prevIdx := cur.idx
		e.stepCursor(c, states)
		if e.running() && !cur.done && cur.idx != prevIdx {
			e.events = append(e.events, Event{Kind: EventPhaseChange, At: e.elapsed, Crane: c})
		}
	}
	// Transitions raised outside their crane's own turn (choreography
	// resets of partner cursors).
	if len(e.pending) > 0 {
		if e.running() {
			e.events = append(e.events, e.pending...)
		}
		e.pending = e.pending[:0]
	}

	if e.score < 0 {
		e.score = 0
	}
	e.syncPhase()
	if e.phase != prevPhase && (e.phase == fom.PhaseComplete || e.phase == fom.PhaseFailed) {
		e.events = append(e.events, Event{Kind: EventPhaseChange, At: e.elapsed})
	}
	return e.events
}

// stepCursor interprets crane c's active node against the telemetry
// snapshot (the whole slice: tandem gates count partner hooks).
func (e *Engine) stepCursor(c int, states []fom.CraneState) {
	cur := &e.cursors[c]
	st := &states[c]
	ps := &e.spec.Phases[cur.idx]
	switch ps.Kind {
	case PhaseDrive:
		d := horizDist(st.Position, ps.Target)
		if e.liveStatus {
			b := append(e.text[:0], "drive to "...)
			b = append(b, phaseLabel(ps)...)
			b = append(b, " ("...)
			b = strconv.AppendFloat(b, d, 'f', 0, 64)
			e.say(cur, append(b, " m to go)"...))
		}
		if d <= ps.Radius {
			e.enter(c, e.spec.next(cur.idx))
		}
	case PhaseLift:
		holdsTarget := st.CargoHeld && (st.CargoID < 0 || st.CargoID == int64(ps.Cargo))
		switch {
		case holdsTarget && ps.Tandem:
			// Tandem gate: the shared load leaves the ground only once
			// every needed hook is latched — count the partners.
			need := e.spec.Cargos[ps.Cargo].HooksNeeded()
			holders := 0
			for i := range states {
				if s := &states[i]; s.CargoHeld && s.CargoID == int64(ps.Cargo) {
					holders++
				}
			}
			if holders >= need {
				e.enter(c, e.spec.next(cur.idx))
			} else if e.liveStatus {
				b := append(e.text[:0], "holding "...)
				b = append(b, e.cargoName(ps.Cargo)...)
				b = append(b, " — waiting for partner hooks ("...)
				b = strconv.AppendInt(b, int64(holders), 10)
				b = append(b, '/')
				b = strconv.AppendInt(b, int64(need), 10)
				e.say(cur, append(b, ')'))
			}
		case holdsTarget:
			// CargoID < 0 means the telemetry cannot identify the load
			// (older builds); accept any latch then.
			e.enter(c, e.spec.next(cur.idx))
		case st.CargoHeld:
			if e.liveStatus {
				b := append(e.text[:0], "that is not "...)
				b = append(b, e.cargoName(int(st.CargoID))...)
				b = append(b, " — set it down and lift "...)
				e.say(cur, append(b, e.cargoName(ps.Cargo)...))
			}
		}
	case PhaseTraverse:
		if !st.CargoHeld {
			// Dropped mid-course: heavy deduction, back to lifting.
			e.score -= e.cfg.BarHit
			e.fallback(c)
			break
		}
		wp := ps.Waypoints[cur.waypoint]
		d := horizDist(st.CargoPos, wp)
		if e.liveStatus {
			b := append(e.text[:0], "waypoint "...)
			b = strconv.AppendInt(b, int64(cur.waypoint+1), 10)
			b = append(b, '/')
			b = strconv.AppendInt(b, int64(len(ps.Waypoints)), 10)
			b = append(b, " ("...)
			b = strconv.AppendFloat(b, d, 'f', 1, 64)
			e.say(cur, append(b, " m)"...))
		}
		if d <= ps.Radius {
			cur.waypoint++
			e.progress++
			if cur.waypoint >= len(ps.Waypoints) {
				e.enter(c, e.spec.next(cur.idx))
			}
		}
	case PhasePlace:
		d := horizDist(st.CargoPos, ps.Target)
		switch {
		case !st.CargoHeld && d <= ps.Radius:
			e.enter(c, e.spec.next(cur.idx))
		case !st.CargoHeld:
			// Released anywhere outside the target: that cargo is on the
			// ground in the wrong place — deduct and re-lift.
			e.score -= e.cfg.BarHit
			e.fallback(c)
		default:
			if e.liveStatus {
				b := append(e.text[:0], "lower and release the cargo at "...)
				e.say(cur, append(b, phaseLabel(ps)...))
			}
		}
	}
	if !cur.done {
		cur.phase = e.spec.Phases[cur.idx].Kind.FOMPhase()
	}
}

// say makes b, a live status text formatted into e.text, cur's message.
// It makes a new string only when b reads differently from the message it
// replaces: the distances move every tick, the text that prints them
// far less often.
func (e *Engine) say(cur *cursor, b []byte) {
	e.text = b
	if string(b) != cur.message {
		cur.message = string(b)
	}
}

// running reports whether the engine is interpreting phase nodes.
func (e *Engine) running() bool {
	return e.phase != fom.PhaseIdle && e.phase != fom.PhaseComplete && e.phase != fom.PhaseFailed
}

// fallback returns crane c to its nearest preceding lift phase after a
// drop. When that lift is a tandem gate, the drop broke a shared carry:
// every partner still working the same load is pulled back to its own
// tandem lift node too (choreography reset), so both cursors re-enter the
// lift gate together instead of the partner holding a waypoint far down
// the sequence that the dropper can no longer reach.
func (e *Engine) fallback(c int) {
	j, ok := e.spec.fallbackLift(e.cursors[c].idx)
	if !ok {
		e.cursors[c].message = "cargo dropped"
		return
	}
	e.enter(c, j)
	e.cursors[c].message = "cargo dropped — pick it up again"
	ps := e.spec.Phases[j]
	if !ps.Tandem {
		return
	}
	for p := range e.cursors {
		if p == c || e.cursors[p].done {
			continue
		}
		// The partner is mid-choreography exactly when its own drop
		// fallback is a tandem lift of the same cargo: at the lift gate
		// (waiting or re-latching) or carrying past it. Anyone who
		// already set the load down and moved on has a different
		// fallback lift and keeps its cursor.
		jp, ok := e.spec.fallbackLift(e.cursors[p].idx)
		if !ok {
			continue
		}
		pp := e.spec.Phases[jp]
		if !pp.Tandem || pp.Cargo != ps.Cargo || e.cursors[p].idx == jp {
			continue
		}
		e.enter(p, jp)
		e.cursors[p].message = "partner dropped the load — back to the tandem lift"
		// The partner's cursor moved outside its own stepping turn; queue
		// its phase-change so the event stream (instructor log, audio)
		// still records the jump.
		e.pending = append(e.pending, Event{Kind: EventPhaseChange, At: e.elapsed, Crane: p})
	}
}

// judgeCollisions deducts score once per contact episode per bar per
// crane, testing crane c's hook and cargo proxies against the bars, and
// appends any new-episode events to the engine's event scratch.
func (e *Engine) judgeCollisions(c int) {
	contact := e.contact
	for b := range contact {
		contact[b] = false
	}
	hookObj, cargoObj := e.hookObjs[c], e.cargoObjs[c]
	for b, obj := range e.bars {
		if _, hit := e.world.CheckPair(obj, cargoObj); hit {
			contact[b] = true
			continue
		}
		if _, hit := e.world.CheckPair(obj, hookObj); hit {
			contact[b] = true
		}
	}
	barHit := e.barHit[c]
	for b := range contact {
		switch {
		case contact[b] && !barHit[b]:
			barHit[b] = true
			e.collisions++
			e.score -= e.cfg.BarHit
			e.alarms |= fom.AlarmCollision
			e.alarmEvents++
			e.events = append(e.events, Event{Kind: EventBarCollision, Bar: e.course.Bars[b].Name, At: e.elapsed, Crane: c})
		case !contact[b]:
			barHit[b] = false // episode over; future hits count again
		}
	}
}

func (e *Engine) applyOvertime() {
	if e.course.ParTime <= 0 {
		return
	}
	if over := e.elapsed - e.course.ParTime; over > 0 {
		e.score -= over / 10 * e.cfg.OvertimePer10
	}
}

func horizDist(a, b mathx.Vec3) float64 {
	dx, dz := a.X-b.X, a.Z-b.Z
	return mathx.V3(dx, 0, dz).Len()
}

// State exports the publishable combined scenario state: the legacy
// single-state view every pre-multi-crane consumer reads. While several
// cranes work, it follows the first crane still busy.
func (e *Engine) State() fom.ScenarioState {
	lead := e.lead()
	s := fom.ScenarioState{
		Phase:      e.phase,
		Score:      e.score,
		Elapsed:    e.elapsed,
		Collisions: e.collisions,
		Waypoint:   uint32(lead.waypoint),
		Message:    lead.message,
		PhaseIndex: uint32(lead.idx),
	}
	if e.phase == fom.PhaseIdle || e.phase == fom.PhaseComplete || e.phase == fom.PhaseFailed {
		s.Message = e.message
	}
	return s
}

// StateFor exports crane c's view of the scenario: its cursor's phase,
// node index, waypoint and message over the shared score and clock. The
// scenario LP publishes one of these per declared crane, tagged with
// CraneID.
func (e *Engine) StateFor(c int) fom.ScenarioState {
	cur := &e.cursors[c]
	s := fom.ScenarioState{
		Phase:      cur.phase,
		Score:      e.score,
		Elapsed:    e.elapsed,
		Collisions: e.collisions,
		Waypoint:   uint32(cur.waypoint),
		Message:    cur.message,
		PhaseIndex: uint32(cur.idx),
		CraneID:    int64(c),
	}
	if e.phase == fom.PhaseComplete || e.phase == fom.PhaseFailed {
		// The verdict is collective: once the run ends, every crane's
		// state reports it.
		s.Phase = e.phase
		s.Message = e.message
	}
	return s
}

// CraneCount returns how many carriers the engine interprets.
func (e *Engine) CraneCount() int { return len(e.cursors) }

// ExtraAlarms returns latched scenario alarms (collision) for the status
// window.
func (e *Engine) ExtraAlarms() fom.Alarm { return e.alarms }

// AlarmEvents returns how many alarm lamps lit during the run — safety
// alarm episodes plus bar collisions — the misconduct count the batch
// analytics persist per record.
func (e *Engine) AlarmEvents() uint32 { return e.alarmEvents }

// Phase returns the current combined coarse phase.
func (e *Engine) Phase() fom.Phase { return e.phase }

// Score returns the current score.
func (e *Engine) Score() float64 { return e.score }
