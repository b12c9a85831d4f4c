package trace

import (
	"math"

	"codsim/internal/dynamics"
	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/scenario"
)

// Autopilot is the synthetic trainee: a feedback controller that completes
// any scenario spec's phase graph from crane-state and scenario-state
// telemetry. It carries the cargo above the bar tops, which is a legal (if
// cautious) strategy — the exam deducts for collisions, not for altitude.
// In a multi-crane scenario one autopilot drives one assigned crane,
// walking only that crane's sub-graph; on tandem lift nodes it latches,
// then holds position until every partner hook arrives.
type Autopilot struct {
	spec  scenario.Spec
	crane int // assigned carrier (index into spec.Cranes)

	// skill degrades the controller output (reaction lag, overshoot,
	// widened slack); the zero value is the flawless expert.
	skill   SkillProfile
	skillSt skillState

	// pickups[i] is the estimated cargo position when phase i (a lift)
	// becomes active: the cargo's spec position, or the target of the
	// place phase that most recently moved it earlier in the graph.
	pickups []mathx.Vec3

	// Working geometry of the boom (from dynamics.DefaultConfig).
	pivotUp    float64 // boom pivot height over the carrier origin
	pivotFwd   float64 // boom pivot offset toward the rear (+Z body)
	workLuff   float64 // preferred luff angle during cargo work
	boomLenMin float64 // shortest boom, bounding the reachable radius band
	workMinR   float64 // boomLenMin·cos(workLuff): the shortest boom's working radius
	snatchDist float64 // skill-mode latch reach, just inside LatchDist
	barTop     float64 // safe carry height: 1.6 m above the tallest bar
	ownLast    int     // last phase node owned by the assigned crane

	// heading, sinH, cosH = the last telemetry heading and its Sincos,
	// reused while the heading is bit-identical.
	heading, sinH, cosH float64

	lastIdx    int // phase index the transient state below belongs to
	settleTime float64
	released   bool
	curPickup  mathx.Vec3 // live pickup estimate for the active lift node
}

// ForCrane builds an autopilot assigned to one declared crane: it acts on
// the ScenarioState telemetry carrying that CraneID and interprets only
// the phase nodes owned by the crane.
func ForCrane(spec scenario.Spec, crane int) *Autopilot {
	cfg := dynamics.DefaultConfig()
	a := &Autopilot{
		spec:       spec,
		crane:      crane,
		pivotUp:    cfg.BoomPivot.Y,
		pivotFwd:   cfg.BoomPivot.Z,
		workLuff:   mathx.Rad(50),
		boomLenMin: cfg.BoomLenMin,
		// Slightly inside the rig's latch reach: asserting the latch any
		// farther out would burn the rising edge on a miss and stall the
		// lift (the dynamics only retry on a fresh edge).
		snatchDist: cfg.LatchDist * 0.97,
		heading:    math.NaN(), // matches no telemetry: the first boomTo computes
		lastIdx:    -1,
	}
	a.workMinR = a.boomLenMin * math.Cos(a.workLuff)
	a.pickups = estimatePickups(spec)
	for i := range spec.Phases {
		if spec.Phases[i].Crane == crane {
			a.ownLast = i
		}
	}
	for _, b := range spec.Course.Bars {
		if h := b.Pos.Y + b.Half.Y; h > a.barTop {
			a.barTop = h
		}
	}
	a.barTop += 1.6
	return a
}

// SetSkill installs a skill profile (the zero value restores the expert).
func (a *Autopilot) SetSkill(p SkillProfile) { a.skill = p }

// Crane returns the assigned carrier index.
func (a *Autopilot) Crane() int { return a.crane }

// estimatePickups walks the phase graph in list order tracking where each
// cargo rests, so a lift that follows a place of the same cargo aims at
// the place target rather than the original spec position. The carried
// cargo is tracked per crane — the sub-graphs interleave in the list.
func estimatePickups(spec scenario.Spec) []mathx.Vec3 {
	est := make([]mathx.Vec3, len(spec.Cargos))
	for i, c := range spec.Cargos {
		est[i] = c.Pos
	}
	pickups := make([]mathx.Vec3, len(spec.Phases))
	carried := make([]int, spec.CraneCount()) // cargo picked by each crane's latest lift
	for c := range carried {
		carried[c] = -1
	}
	for i, ps := range spec.Phases {
		if ps.Crane < 0 || ps.Crane >= len(carried) {
			continue
		}
		switch ps.Kind {
		case scenario.PhaseLift:
			if ps.Cargo >= 0 && ps.Cargo < len(est) {
				pickups[i] = est[ps.Cargo]
				carried[ps.Crane] = ps.Cargo
			}
		case scenario.PhasePlace:
			if held := carried[ps.Crane]; held >= 0 && held < len(est) {
				est[held] = ps.Target
			}
		}
	}
	return pickups
}

// phaseIdx resolves the telemetry to a phase-graph index. Telemetry
// without an index (an older scenario LP on the wire) falls back to the
// first own-crane node matching the coarse phase; anything else out of
// range is clamped to an own-crane node — a mismatched spec revision must
// not panic the trainee.
func (a *Autopilot) phaseIdx(scen *fom.ScenarioState) int {
	if scen.PhaseIndex == fom.PhaseIndexUnknown {
		for i := range a.spec.Phases {
			if ps := &a.spec.Phases[i]; ps.Crane == a.crane && ps.Kind.FOMPhase() == scen.Phase {
				return i
			}
		}
		entry, _ := a.spec.EntryFor(a.crane)
		return entry
	}
	idx := int(scen.PhaseIndex)
	if idx < 0 || idx >= len(a.spec.Phases) || a.spec.Phases[idx].Crane != a.crane {
		idx = a.ownLast
	}
	return idx
}

// Control produces the next operator input for the current telemetry.
func (a *Autopilot) Control(st fom.CraneState, scen fom.ScenarioState, dt float64) fom.ControlInput {
	return a.control(&st, &scen, dt)
}

// control is Control reading the telemetry in place.
func (a *Autopilot) control(st *fom.CraneState, scen *fom.ScenarioState, dt float64) fom.ControlInput {
	in := fom.ControlInput{Ignition: true}
	switch scen.Phase {
	case fom.PhaseIdle:
		// Engine on and wait for the scenario to arm.
		return in
	case fom.PhaseComplete, fom.PhaseFailed:
		in.Ignition = false
		return in
	}

	// Transient controller state (latch settling, release edge) belongs to
	// one phase node; starting another node resets it.
	idx := a.phaseIdx(scen)
	if idx != a.lastIdx {
		if a.spec.Phases[idx].Kind == scenario.PhaseLift {
			if a.lastIdx > idx {
				// Entered backwards — the drop-edge fallback. The cargo
				// just slipped off the hook, so it rests at the live
				// published position, not at the static pickup estimate.
				a.curPickup = st.CargoPos
			} else {
				a.curPickup = a.pickups[idx]
			}
		}
		a.lastIdx = idx
		a.settleTime = 0
		a.released = false
	}

	ps := &a.spec.Phases[idx]
	switch ps.Kind {
	case scenario.PhaseDrive:
		a.drive(&in, st, ps.Target, ps.Radius)
	case scenario.PhaseLift:
		a.parkBrake(&in)
		if ps.Tandem && st.CargoHeld && st.CargoID == int64(ps.Cargo) {
			// Wait-for-partner gate: this hook is on the shared load but
			// the scenario has not advanced, so a partner hook is still
			// missing. Hold the latch and hover over the pick instead of
			// hauling on a load that must not leave the ground yet.
			a.holdTandem(&in, st)
		} else {
			a.lift(&in, st, a.curPickup, dt)
		}
	case scenario.PhaseTraverse:
		a.parkBrake(&in)
		a.traverse(&in, st, int(scen.Waypoint), ps)
	case scenario.PhasePlace:
		a.parkBrake(&in)
		a.putDown(&in, st, ps.Target, dt)
	}
	return a.skill.apply(in, dt, &a.skillSt)
}

// holdTandem keeps the latched hook steady over a grounded tandem load
// while the partner cranes finish their approach.
func (a *Autopilot) holdTandem(in *fom.ControlInput, st *fom.CraneState) {
	in.HookLatch = true
	top := st.CargoPos.Add(mathx.V3(0, 0.6, 0))
	a.boomTo(in, st, top, top.Y+0.3, 0.8)
}

func (a *Autopilot) parkBrake(in *fom.ControlInput) {
	in.Brake = 1
	in.Gear = 0
}

// drive steers the carrier toward the parking spot with the hook stowed:
// the cable reeled in and the boom raised, so the dangling hook cannot
// sweep through site obstacles on the way in.
func (a *Autopilot) drive(in *fom.ControlInput, st *fom.CraneState, target mathx.Vec3, radius float64) {
	if st.CableLen > 1.5 {
		in.HoistJoyY = -1 // reel in
	}
	in.BoomJoyY = mathx.Clamp(4*(mathx.Rad(35)-st.BoomLuff), -1, 1)

	dx := target.X - st.Position.X
	dz := target.Z - st.Position.Z
	dist := math.Hypot(dx, dz)

	bearing := math.Atan2(dx, -dz) // compass heading toward the target
	headErr := mathx.AngleDiff(bearing, st.Heading)
	in.Steering = mathx.Clamp(2.2*headErr, -1, 1)

	// Speed proportional to remaining distance, capped under the site
	// limit, braking into the parking spot.
	targetSpeed := mathx.Clamp(dist*0.35, 0, 7.0)
	if dist < radius*1.5 {
		targetSpeed = 1.0
	}
	if st.Speed < targetSpeed {
		in.Gear = 1
		in.Throttle = mathx.Clamp(0.25*(targetSpeed-st.Speed)+0.25, 0, 1)
	} else {
		in.Brake = mathx.Clamp(0.4*(st.Speed-targetSpeed), 0, 1)
	}
}

// boomTo commands swing/telescope/hoist so the hook approaches the point
// `target` (world space) at height targetY. slack is the radial standoff
// the caller tolerates (how far outside the target the hook may hover and
// still satisfy the phase — a gate radius, a latch reach): the boom only
// steepens beyond the working luff when even that slack cannot bridge the
// gap to the shortest boom's minimum radius.
func (a *Autopilot) boomTo(in *fom.ControlInput, st *fom.CraneState, target mathx.Vec3, targetY, slack float64) {
	// Pivot position in world space (carrier assumed near-level while
	// parked on the test ground).
	if math.Float64bits(a.heading) != math.Float64bits(st.Heading) {
		a.heading = st.Heading
		a.sinH, a.cosH = mathx.Sincos(st.Heading)
	}
	fwd := mathx.V3(a.sinH, 0, -a.cosH)
	pivot := st.Position.Add(fwd.Scale(-a.pivotFwd)) // pivot sits behind center
	pivot.Y += a.pivotUp

	dx := target.X - pivot.X
	dz := target.Z - pivot.Z
	wantRadius := math.Hypot(dx, dz)
	bearing := math.Atan2(dx, -dz)
	wantSwing := mathx.AngleDiff(bearing, st.Heading)

	// A sloppier trainee tolerates a wider stand-off before correcting.
	slack += a.skill.SlackBand

	// Swing toward the bearing.
	swingErr := mathx.AngleDiff(wantSwing, st.BoomSwing)
	in.BoomJoyX = mathx.Clamp(3*swingErr, -1, 1)

	// Hold the working luff — unless the target sits so far inside the
	// shortest boom's radius at that luff that hovering slack meters
	// outside it still misses the phase goal. Then raise the boom until
	// the wanted radius becomes reachable (telescoping alone cannot get
	// closer than boomLenMin·cos(luff)), staying inside the crane's safe
	// luffing band so close work does not trip the luff alarm. Courses
	// whose standoff fits the slack keep the constant working luff — the
	// calmer controller regime.
	if slack < 0.3 {
		slack = 0.3
	}
	wantLuff := a.workLuff
	steepening := false
	if wantRadius < a.workMinR-slack {
		wantLuff = math.Acos(mathx.Clamp(wantRadius/a.boomLenMin, 0.1, 0.99))
		wantLuff = mathx.Clamp(wantLuff, mathx.Rad(20), mathx.Rad(74))
		steepening = wantLuff > st.BoomLuff
	}
	luffErr := wantLuff - st.BoomLuff
	if steepening {
		// Raise slowly: the hoist winch (1.4 m/s) must keep pace with the
		// boom tip's climb or the cable goes slack / the load drags low.
		in.BoomJoyY = mathx.Clamp(luffErr, 0, 0.35)
	} else {
		in.BoomJoyY = mathx.Clamp(4*luffErr, -1, 1)
	}

	// Telescope to the required radius.
	curRadius := st.BoomLen * math.Cos(st.BoomLuff)
	radiusErr := wantRadius - curRadius
	in.HoistJoyX = mathx.Clamp(1.5*radiusErr, -1, 1)

	// Hoist the cable so the hook's rest position sits at targetY. The
	// servo tracks cable length against the boom-tip height — never the
	// live hook height, which oscillates with the pendulum: a hook-height
	// servo reels on the downswing and pays out on the upswing, pumping
	// the pendulum exactly like a playground swing.
	tipY := st.Position.Y + a.pivotUp + st.BoomLen*math.Sin(st.BoomLuff)
	cableTarget := tipY - targetY
	in.HoistJoyY = mathx.Clamp(0.8*(cableTarget-st.CableLen), -1, 1)
}

// lift positions the hook over the cargo, descends and latches. est is the
// cargo's estimated resting position; the published CargoPos takes over
// for the final approach once the hook is nearby.
func (a *Autopilot) lift(in *fom.ControlInput, st *fom.CraneState, est mathx.Vec3, dt float64) {
	target := est
	if math.Hypot(st.HookPos.X-est.X, st.HookPos.Z-est.Z) < 3 {
		target = st.CargoPos
	}
	cargoTop := target.Add(mathx.V3(0, 0.6, 0))
	horiz := math.Hypot(st.HookPos.X-cargoTop.X, st.HookPos.Z-cargoTop.Z)
	// A lagged trainee cannot settle the hook dead over the load — wind
	// or their own overshoot keeps the pendulum in a limit cycle — so
	// they snatch the sling whenever the hook swings within reach. The
	// latch drops again once the pass is over, re-arming the edge for the
	// next try. The expert keeps the classic settle-then-latch behavior.
	if !a.skill.IsZero() && st.HookPos.Dist(cargoTop) < a.snatchDist {
		in.HookLatch = true
	}
	if horiz > 0.8 {
		// Align above the cargo first, hook held high enough to clear any
		// bars between here and there.
		a.boomTo(in, st, cargoTop, math.Max(cargoTop.Y+3, a.barTop+1), 0.5)
		a.settleTime = 0
		return
	}
	// Descend onto the cargo and close the latch when near.
	a.boomTo(in, st, cargoTop, cargoTop.Y, 0.5)
	if st.HookPos.Dist(cargoTop) < 1.2 {
		a.settleTime += dt
		if a.settleTime > 0.3 { // let the hook settle before latching
			in.HookLatch = true
		}
	}
}

// traverse carries the cargo through the phase's waypoints above bar
// height.
func (a *Autopilot) traverse(in *fom.ControlInput, st *fom.CraneState, wpIdx int, ps *scenario.PhaseSpec) {
	in.HookLatch = true // keep holding
	if wpIdx >= len(ps.Waypoints) {
		wpIdx = len(ps.Waypoints) - 1
	}
	wp := ps.Waypoints[wpIdx]
	carryY := a.barTop + 0.8 // cargo bottom clears the bars
	// The hook rides 0.6 m above the cargo center (latch offset) plus the
	// 0.6 m cargo half height.
	hookY := carryY + 1.2
	a.boomTo(in, st, wp, hookY, ps.Radius*0.75)
	// Lift before you slew: while the hook hangs below carry height —
	// after a boom reconfiguration dropped the tip — translating at full
	// rate would sweep the low cargo through the bar field.
	if st.HookPos.Y < hookY-1.0 {
		in.BoomJoyX *= 0.2
		in.HoistJoyX *= 0.2
	}
}

// putDown brings the cargo to the target, lowers it and releases.
func (a *Autopilot) putDown(in *fom.ControlInput, st *fom.CraneState, target mathx.Vec3, dt float64) {
	if a.released {
		in.HookLatch = false
		return
	}
	in.HookLatch = true
	horiz := math.Hypot(st.CargoPos.X-target.X, st.CargoPos.Z-target.Z)
	if horiz > 1.2 {
		a.boomTo(in, st, target, a.barTop+2, 0.8)
		return
	}
	// Over the target: lower until the cargo grounds, then let go.
	a.boomTo(in, st, target, st.Position.Y+1.2, 0.8)
	if st.CargoPos.Y < st.Position.Y+1.4 {
		a.settleTime += dt
		if a.settleTime > 0.4 {
			in.HookLatch = false
			a.released = true
		}
	}
}
