// Package dynamics implements the dynamic module of §3.6: the physics that
// makes the simulator "high fidelity". It integrates, at a fixed step,
//
//   - the carrier (truck) dynamics: engine, gas and brake pedals, steering,
//     slope resistance, and terrain following of the ground posture;
//   - the derrick boom kinematics: rate-limited swing (slew), luff (raise),
//     telescope and hoist axes driven by the two joysticks;
//   - the inertia oscillation of the lift hook: the plumb cable is a
//     pendulum with a moving pivot (the boom tip), so boom motion swings
//     the hook, and after the boom stops the hook keeps oscillating until
//     drag brings it to rest — exactly the behaviour the paper calls out;
//   - the tip-over stability margin, since a mobile crane's high center of
//     gravity makes both driving and lifting hazardous.
//
// The module also produces the motion cues (specific force and angular
// rates) consumed by the Stewart-platform controller (§3.4).
package dynamics

import (
	"fmt"
	"math"

	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/terrain"
)

// Gravity is the gravitational acceleration used throughout (m/s²).
const Gravity = 9.81

// Config holds the physical parameters of the simulated mobile crane. Use
// DefaultConfig as the base; all values are SI.
type Config struct {
	// Carrier.
	Mass           float64 // kg, carrier + superstructure
	Wheelbase      float64 // m
	Track          float64 // m
	MaxEngineForce float64 // N at full throttle
	MaxBrakeForce  float64 // N at full brake
	MaxSpeed       float64 // m/s forward
	MaxReverse     float64 // m/s backward
	MaxSteer       float64 // rad, wheel angle at full lock
	RollResist     float64 // N/(m/s) rolling + drivetrain resistance
	IdleRPM        float64
	MaxRPM         float64

	// Boom geometry and actuation.
	BoomPivot  mathx.Vec3 // boom foot in carrier frame (origin at ground center)
	SwingRate  float64    // rad/s at full joystick
	LuffRate   float64    // rad/s
	TeleRate   float64    // m/s
	HoistRate  float64    // m/s
	LuffMin    float64    // rad
	LuffMax    float64    // rad
	BoomLenMin float64    // m
	BoomLenMax float64    // m
	CableMin   float64    // m
	CableMax   float64    // m
	ControlLag float64    // s, first-order actuator lag

	// Suspended load.
	HookMass  float64 // kg
	CableDrag float64 // 1/s, linear velocity damping at hook mass
	LatchDist float64 // m, max hook-to-cargo distance for latching
	// WindResponse couples the hook to the site wind (SetWind): the
	// fraction per second by which the hook's velocity relaxes toward the
	// wind velocity, before the suspended-mass derate. 0 disables wind.
	WindResponse float64 // 1/s

	// Stability.
	TipMomentMax float64 // N·m, load moment that fully consumes the margin
}

// DefaultConfig returns parameters approximating a 25-tonne telescopic
// truck crane.
func DefaultConfig() Config {
	return Config{
		Mass:           24000,
		Wheelbase:      4.2,
		Track:          2.5,
		MaxEngineForce: 65000,
		MaxBrakeForce:  90000,
		MaxSpeed:       13.9, // ~50 km/h
		MaxReverse:     4.2,
		MaxSteer:       mathx.Rad(35),
		RollResist:     2600,
		IdleRPM:        650,
		MaxRPM:         2400,

		BoomPivot:  mathx.V3(0, 2.4, 1.0),
		SwingRate:  mathx.Rad(18),
		LuffRate:   mathx.Rad(9),
		TeleRate:   0.9,
		HoistRate:  1.4,
		LuffMin:    mathx.Rad(12),
		LuffMax:    mathx.Rad(80),
		BoomLenMin: 10.2,
		BoomLenMax: 26.0,
		CableMin:   1.0,
		CableMax:   28.0,
		ControlLag: 0.35,

		HookMass:     250,
		CableDrag:    0.28,
		LatchDist:    1.6,
		WindResponse: 0.35,

		TipMomentMax: 9.0e5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Mass <= 0:
		return fmt.Errorf("dynamics: Mass %v", c.Mass)
	case c.Wheelbase <= 0 || c.Track <= 0:
		return fmt.Errorf("dynamics: footprint %vx%v", c.Wheelbase, c.Track)
	case c.LuffMin >= c.LuffMax:
		return fmt.Errorf("dynamics: luff range [%v,%v]", c.LuffMin, c.LuffMax)
	case c.BoomLenMin >= c.BoomLenMax:
		return fmt.Errorf("dynamics: boom range [%v,%v]", c.BoomLenMin, c.BoomLenMax)
	case c.CableMin >= c.CableMax:
		return fmt.Errorf("dynamics: cable range [%v,%v]", c.CableMin, c.CableMax)
	case c.HookMass <= 0:
		return fmt.Errorf("dynamics: HookMass %v", c.HookMass)
	case c.TipMomentMax <= 0:
		return fmt.Errorf("dynamics: TipMomentMax %v", c.TipMomentMax)
	}
	return nil
}

// Event is a discrete occurrence surfaced by Step for the audio and
// scenario modules.
type Event int

// Events. Values start at 1; 0 is invalid.
const (
	EventEngineStarted Event = iota + 1
	EventEngineStopped
	EventCargoLatched
	EventCargoReleased
)

// Model integrates the crane. Not safe for concurrent use: it belongs to
// the dynamics LP's tick loop.
//
// A parked carrier asks the terrain the same question every tick, and a
// boom at rest the same trigonometry, so the model keeps the last answers
// (frame) beside the inputs they were computed from. An answer is reused
// only while those inputs are bit-identical to the live ones — (heading)
// for the sine and cosine of the heading and of CarrierRot's yaw half
// angle, (x, z, heading) for ground height and posture, (swing) and (luff)
// for BoomTip's boom direction — so a reused value is the value a fresh
// call would return. Only NewCrane, Step and the two pose accessors they
// call, BoomTip and CarrierRot, touch the frame; State does not.
//
// pitch and roll are stored and published exactly as integrated; what the
// kernel computes with is level(pitch) and level(roll) — see level.
type Model struct {
	cfg Config
	ter *terrain.Map

	// Carrier.
	pos      mathx.Vec3
	heading  float64
	speed    float64
	pitch    float64
	roll     float64
	prevYawR float64
	accelFwd float64
	engineOn bool
	rpm      float64
	frame    carrierFrame

	// Boom axes: position + actual (lagged) rate.
	swing, swingV  float64
	luff, luffV    float64
	boomLen, lenV  float64
	cableLen, cabV float64
	prevTip        mathx.Vec3
	prevTipVel     mathx.Vec3
	havePrevTip    bool

	// Suspended load.
	hookPos   mathx.Vec3
	hookVel   mathx.Vec3
	cargoHeld bool
	cargoMass float64    // this rig's share of the latched load (kg)
	cargoPos  mathx.Vec3 // carried or last-touched resting position
	latchArm  bool       // debounced latch input edge

	// Cargo lives in the (possibly shared) World: the latch grabs the
	// nearest grounded unit within LatchDist; releasing drops the cargo
	// back as a new unit where it lands. Units keep the stable ID they
	// were registered with (their position in the AddCargoHooks sequence), so
	// the scenario engine can tell which load is on which hook. cargoRef
	// is this rig's latched unit (nil when the hook is empty); only this
	// rig's goroutine touches it.
	world    *World
	cargoRef *cargoUnit
	craneID  int64

	wind Wind

	events []Event
	t      float64
}

// carrierFrame is the Model's memo of per-pose answers; see Model.
type carrierFrame struct {
	heading, sinH, cosH float64 // sinH, cosH = Sincos(heading)
	sinY, cosY          float64 // = Sincos(-heading/2), CarrierRot's yaw
	x, z, gh, y, tp, tr float64 // y = HeightAt(x, z); tp, tr = Posture(x, z, gh)
	swing, sinS, cosS   float64 // sinS, cosS = Sincos(swing)
	luff, sinL, cosL    float64 // sinL, cosL = Sincos(luff)
}

// unsetFrame is a frame whose NaN inputs match no finite pose: its first
// queries compute.
func unsetFrame() carrierFrame {
	nan := math.NaN()
	return carrierFrame{heading: nan, x: nan, swing: nan, luff: nan}
}

// levelEps is the magnitude under which a stored attitude angle reads as
// level: 2⁻¹⁰⁰⁰, far enough above the subnormal range (2⁻¹⁰²²) that the
// half angles QuatEuler takes of anything at or over it are normal numbers.
const levelEps = 0x1p-1000

// level is the attitude angle the kernel computes with: x, except that a
// magnitude under levelEps reads as a zero of x's sign.
//
// On ground the terrain reports as exactly level, stepCarrier's blend
// relaxes the stored pitch and roll toward 0 by ×0.889 a tick and never
// gets there: a carrier parked some 100 simulated seconds holds a
// subnormal angle (it sticks at a few units of 4.9e-324), and every
// Sincos, quaternion product, Sin and Hypot fed from it takes a microcode
// assist — a parked step cost three times a moving one. Normal angles take
// them too on the way down: the squares and fourth powers the
// trigonometric polynomials take of a normal half angle under about 2⁻²⁵⁵
// are subnormal. mathx.Sincos and mathx.Sin skip the polynomials under
// 2⁻²⁷, where their answer is known, so that trigonometry takes none.
//
// The three places that compute with the attitude read it through level, each
// where the angle provably cannot reach a published bit: CarrierRot (an
// offset under 2⁻⁹⁹⁰ m vanishes in the sum with a site coordinate),
// Stability (a tilt penalty under 2⁻⁹⁹⁰ vanishes beside a margin with a
// 2⁻⁵³ grid) and stepCarrier's slope force while the carrier stands on its
// brake (the hold zeroes the force either way). The stored angles and
// their decay are never touched, so State publishes the pitch and roll it
// always did, subnormals included; internal/trace's trajectory golden,
// whose corpus flies stalled candidates through the whole stall window,
// holds the kernel to that bit for bit.
func level(x float64) float64 {
	if math.Abs(x) < levelEps {
		return math.Copysign(0, x)
	}
	return x
}

// same reports bit equality: stricter than ==, so the memo needs no
// argument that -0 and +0 get the same answer, and a NaN matches itself.
func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// turned returns the frame with its heading answers current.
func (m *Model) turned() *carrierFrame {
	f := &m.frame
	if !same(f.heading, m.heading) {
		f.heading = m.heading
		f.sinH, f.cosH = mathx.Sincos(m.heading)
		f.sinY, f.cosY = mathx.Sincos(-m.heading / 2)
	}
	return f
}

// ground returns the terrain height under the carrier and the posture the
// terrain gives it at the current heading.
func (m *Model) ground() (y, pitch, roll float64) {
	f := &m.frame
	if !same(f.x, m.pos.X) || !same(f.z, m.pos.Z) || !same(f.gh, m.heading) {
		f.x, f.z, f.gh = m.pos.X, m.pos.Z, m.heading
		f.y = m.ter.HeightAt(f.x, f.z)
		f.tp, f.tr = m.ter.Posture(f.x, f.z, f.gh, m.cfg.Wheelbase, m.cfg.Track)
	}
	return f.y, f.tp, f.tr
}

// NewCrane creates one rig of a (possibly multi-carrier) site: the model
// rests at start on the terrain with boom stowed and cable short, and
// latches cargo out of the shared world. craneID tags the published
// CraneState so federation consumers can tell the carriers apart;
// single-crane setups use 0.
func NewCrane(cfg Config, ter *terrain.Map, w *World, start mathx.Vec3, heading float64, craneID int) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ter == nil {
		return nil, fmt.Errorf("dynamics: nil terrain")
	}
	if w == nil {
		return nil, fmt.Errorf("dynamics: nil world")
	}
	m := &Model{
		cfg:      cfg,
		ter:      ter,
		world:    w,
		craneID:  int64(craneID),
		pos:      start,
		heading:  heading,
		luff:     cfg.LuffMin,
		boomLen:  cfg.BoomLenMin,
		cableLen: 4.0,
		frame:    unsetFrame(),
	}
	m.pos.Y, m.pitch, m.roll = m.ground()
	tip := m.BoomTip()
	m.hookPos = tip.Sub(mathx.V3(0, m.cableLen, 0))
	m.cargoPos = m.hookPos
	return m, nil
}

// World returns the model's cargo world (shared across rigs in
// multi-crane setups).
func (m *Model) World() *World { return m.world }

// CraneID returns the rig's carrier index.
func (m *Model) CraneID() int64 { return m.craneID }

// detachCargo clears the rig's held-load bookkeeping (World.Reset calls
// it when the site layout is replaced under a latched hook).
func (m *Model) detachCargo() {
	m.cargoHeld = false
	m.cargoMass = 0
	m.cargoRef = nil
}

// CarrierRot returns the carrier body rotation mapping body axes (forward
// -Z, right +X, up +Y) to world space. Heading is compass-like — 0 faces
// -Z, π/2 faces +X — which is a rotation of -heading about +Y. Pitch is
// nose-up positive; roll is left-side-up positive, a rotation of -roll
// about +Z in the body frame.
func (m *Model) CarrierRot() mathx.Quat {
	// QuatEuler(-m.heading, level(m.pitch), -level(m.roll)).
	f := m.turned()
	return mathx.QuatEulerHalfYaw(f.sinY, f.cosY, level(m.pitch), -level(m.roll))
}

// BoomTip returns the boom tip position in world space.
func (m *Model) BoomTip() mathx.Vec3 {
	f := &m.frame
	if !same(f.swing, m.swing) {
		f.swing = m.swing
		f.sinS, f.cosS = mathx.Sincos(m.swing)
	}
	if !same(f.luff, m.luff) {
		f.luff = m.luff
		f.sinL, f.cosL = mathx.Sincos(m.luff)
	}
	// Boom direction in carrier frame: at swing 0 the boom points forward
	// (-Z), luff elevates toward +Y.
	dir := mathx.V3(f.sinS*f.cosL, f.sinL, -f.cosS*f.cosL)
	local := m.cfg.BoomPivot.Add(dir.Scale(m.boomLen))
	return m.pos.Add(m.CarrierRot().Rotate(local))
}

// Step advances the model by dt seconds under the given operator input and
// returns the discrete events raised during the step.
func (m *Model) Step(in fom.ControlInput, dt float64) []Event {
	if dt <= 0 {
		return nil
	}
	m.events = m.events[:0]
	m.t += dt

	m.stepEngine(in)
	m.stepCarrier(in, dt)
	m.stepBoom(in, dt)
	m.stepPendulum(dt)
	m.stepLatch(in)

	return append([]Event(nil), m.events...)
}

func (m *Model) stepEngine(in fom.ControlInput) {
	if in.Ignition && !m.engineOn {
		m.engineOn = true
		m.events = append(m.events, EventEngineStarted)
	}
	if !in.Ignition && m.engineOn {
		m.engineOn = false
		m.events = append(m.events, EventEngineStopped)
	}
	if m.engineOn {
		m.rpm = m.cfg.IdleRPM + mathx.Clamp(in.Throttle, 0, 1)*(m.cfg.MaxRPM-m.cfg.IdleRPM)
	} else {
		m.rpm = 0
	}
}

func (m *Model) stepCarrier(in fom.ControlInput, dt float64) {
	cfg := &m.cfg
	var drive float64
	if m.engineOn {
		switch in.Gear {
		case 1:
			drive = mathx.Clamp(in.Throttle, 0, 1) * cfg.MaxEngineForce
		case 2:
			drive = -mathx.Clamp(in.Throttle, 0, 1) * cfg.MaxEngineForce * 0.6
		}
	}
	// Forces along the forward axis.
	brake := mathx.Clamp(in.Brake, 0, 1) * cfg.MaxBrakeForce
	// A carrier standing on its brake with no drive stays put whatever a
	// slope force of under a newton says — the hold below zeroes the sum —
	// so there the pitch may read as level. Anywhere else the force is
	// integrated into the published speed, and it keeps every bit.
	pitch := m.pitch
	if m.speed == 0 && drive == 0 && brake >= 1 {
		pitch = level(pitch)
	}
	slope := -cfg.Mass * Gravity * mathx.Sin(pitch) // uphill pitch slows forward motion
	resist := cfg.RollResist * m.speed
	force := drive + slope - resist
	// Brake always opposes motion and can hold the vehicle.
	if m.speed > 0 {
		force -= brake
	} else if m.speed < 0 {
		force += brake
	} else if math.Abs(force) < brake {
		force = 0
	}
	prevSpeed := m.speed
	m.speed += force / cfg.Mass * dt
	// Brake must not reverse the motion direction within a step.
	if brake > 0 && prevSpeed != 0 && m.speed*prevSpeed < 0 {
		m.speed = 0
	}
	m.speed = mathx.Clamp(m.speed, -cfg.MaxReverse, cfg.MaxSpeed)
	m.accelFwd = (m.speed - prevSpeed) / dt

	// Steering (bicycle model). Sign: positive steering turns right
	// (heading increases with forward motion).
	steer := mathx.Clamp(in.Steering, -1, 1) * cfg.MaxSteer
	yawRate := 0.0
	if math.Abs(m.speed) > 1e-6 {
		yawRate = m.speed / cfg.Wheelbase * math.Tan(steer)
	}
	m.prevYawR = yawRate
	m.heading = mathx.WrapAngle(m.heading + yawRate*dt)

	// Advance over the ground; the forward axis at heading 0 is -Z.
	f := m.turned()
	fwd := mathx.V3(f.sinH, 0, -f.cosH)
	m.pos = m.pos.Add(fwd.Scale(m.speed * dt))

	// Terrain following with a small settling lag so grid cell borders do
	// not kick the cab (§3.6).
	y, tp, tr := m.ground()
	m.pos.Y = y
	blend := mathx.Clamp(dt/0.15, 0, 1)
	m.pitch += (tp - m.pitch) * blend
	m.roll += (tr - m.roll) * blend
}

// stepBoom integrates the four boom axes with first-order actuator lag and
// hard position limits.
func (m *Model) stepBoom(in fom.ControlInput, dt float64) {
	cfg := &m.cfg
	lag := mathx.Clamp(dt/math.Max(cfg.ControlLag, 1e-3), 0, 1)
	operational := m.engineOn // boom hydraulics need the engine

	target := func(axis float64, maxRate float64) float64 {
		if !operational {
			return 0
		}
		return mathx.Clamp(axis, -1, 1) * maxRate
	}
	m.swingV += (target(in.BoomJoyX, cfg.SwingRate) - m.swingV) * lag
	m.luffV += (target(in.BoomJoyY, cfg.LuffRate) - m.luffV) * lag
	m.lenV += (target(in.HoistJoyX, cfg.TeleRate) - m.lenV) * lag
	m.cabV += (target(in.HoistJoyY, cfg.HoistRate) - m.cabV) * lag

	m.swing = mathx.WrapAngle(m.swing + m.swingV*dt)
	m.luff += m.luffV * dt
	if m.luff <= cfg.LuffMin {
		m.luff, m.luffV = cfg.LuffMin, 0
	} else if m.luff >= cfg.LuffMax {
		m.luff, m.luffV = cfg.LuffMax, 0
	}
	m.boomLen += m.lenV * dt
	if m.boomLen <= cfg.BoomLenMin {
		m.boomLen, m.lenV = cfg.BoomLenMin, 0
	} else if m.boomLen >= cfg.BoomLenMax {
		m.boomLen, m.lenV = cfg.BoomLenMax, 0
	}
	m.cableLen += m.cabV * dt
	if m.cableLen <= cfg.CableMin {
		m.cableLen, m.cabV = cfg.CableMin, 0
	} else if m.cableLen >= cfg.CableMax {
		m.cableLen, m.cabV = cfg.CableMax, 0
	}
}

// stepPendulum integrates the hook as a particle on an inextensible cable
// hanging from the moving boom tip: gravity plus linear drag, then a
// position-based projection onto the cable-length constraint. This yields
// the paper's inertia oscillation — the cable "is oscillated until a full
// stop" after the boom halts — without a stiff spring.
func (m *Model) stepPendulum(dt float64) {
	tip := m.BoomTip()
	if !m.havePrevTip {
		m.prevTip = tip
		m.havePrevTip = true
	}
	tipVel := tip.Sub(m.prevTip).Scale(1 / dt)
	m.prevTip = tip
	m.prevTipVel = tipVel

	// Heavier suspended loads are damped relatively less.
	massFactor := (m.cfg.HookMass + m.cargoMass) / m.cfg.HookMass
	drag := m.cfg.CableDrag / massFactor

	m.hookVel.Y -= Gravity * dt
	m.hookVel = m.hookVel.Sub(m.hookVel.Scale(drag * dt))

	// Site wind: aerodynamic drag relaxes the hook velocity toward the
	// wind velocity. Heavier suspended loads respond relatively less.
	if m.cfg.WindResponse > 0 && !m.wind.IsZero() {
		rel := m.wind.VelocityAt(m.t).Sub(m.hookVel)
		m.hookVel = m.hookVel.Add(rel.Scale(m.cfg.WindResponse / massFactor * dt))
	}

	m.hookPos = m.hookPos.Add(m.hookVel.Scale(dt))

	// Cable constraint: the hook may not be farther than cableLen from
	// the tip. A taut cable removes outward radial velocity (relative to
	// the moving pivot).
	delta := m.hookPos.Sub(tip)
	dist := delta.Len()
	if dist > m.cableLen {
		dir := delta.Scale(1 / dist)
		m.hookPos = tip.Add(dir.Scale(m.cableLen))
		rel := m.hookVel.Sub(tipVel)
		if out := rel.Dot(dir); out > 0 {
			m.hookVel = m.hookVel.Sub(dir.Scale(out))
		}
	}

	// Ground: the hook (and carried cargo) cannot sink into the terrain.
	var minY float64
	minY, m.cargoPos = m.world.settleHook(m, m.cargoRef, m.hookPos,
		m.ter.HeightAt(m.hookPos.X, m.hookPos.Z)+0.15, m.cargoPos)
	if m.hookPos.Y < minY {
		m.hookPos.Y = minY
		if m.hookVel.Y < 0 {
			m.hookVel.Y = 0
		}
		// Ground friction kills lateral sliding quickly.
		m.hookVel.X *= 0.7
		m.hookVel.Z *= 0.7
	}
}

// stepLatch handles cargo pickup and release on latch edges. The load
// the rig feels is its share of the unit's mass — half a tandem beam,
// the whole of an ordinary crate.
func (m *Model) stepLatch(in fom.ControlInput) {
	if in.HookLatch && !m.latchArm {
		m.latchArm = true
		if !m.cargoHeld {
			if u, share, pos := m.world.latch(m, m.hookPos, m.cfg.LatchDist); u != nil {
				m.cargoHeld = true
				m.cargoRef = u
				m.cargoMass = share
				m.cargoPos = pos
				m.events = append(m.events, EventCargoLatched)
			}
		}
	}
	if !in.HookLatch && m.latchArm {
		m.latchArm = false
		if m.cargoHeld {
			// A carried unit drops to the ground below its release point
			// and becomes a pickup site again, keeping its identity; a
			// grounded tandem unit just loses this rig's hook.
			m.cargoPos = m.world.release(m, m.cargoRef, m.ter.HeightAt)
			m.cargoHeld = false
			m.cargoRef = nil
			m.cargoMass = 0
			m.events = append(m.events, EventCargoReleased)
		}
	}
}

// Stability returns the tip-over margin in [0,1]: 1 fully stable, 0 at the
// tipping limit. It combines the suspended load moment about the carrier
// with a penalty for ground tilt.
func (m *Model) Stability() float64 {
	load := (m.cfg.HookMass + m.cargoMass) * Gravity
	// Horizontal lever arm of the suspended load from the carrier center.
	arm := math.Hypot(m.hookPos.X-m.pos.X, m.hookPos.Z-m.pos.Z)
	moment := load * arm
	margin := 1 - moment/m.cfg.TipMomentMax
	// Tilt penalty: 15° of combined tilt wipes out half the margin.
	tilt := math.Hypot(level(m.pitch), level(m.roll))
	margin -= tilt / mathx.Rad(30)
	return mathx.Clamp(margin, 0, 1)
}

// State exports the authoritative crane state for publication. CargoHeld
// reports the latch (a tandem cargo may still rest on the ground while
// latched, waiting for its partner hooks); CargoMass is this rig's share
// of the load.
func (m *Model) State() fom.CraneState {
	var st fom.CraneState
	m.StateTo(&st)
	return st
}

// StateTo is State written into st, for a loop that keeps its states in
// place instead of copying one out per tick. It sets every field of st
// one by one: a composite literal would be built aside and copied over.
func (m *Model) StateTo(st *fom.CraneState) {
	st.CargoID = -1
	if m.cargoRef != nil {
		st.CargoID = m.cargoRef.id
	}
	st.Position = m.pos
	st.Heading = m.heading
	st.Pitch = m.pitch
	st.Roll = m.roll
	st.Speed = m.speed
	st.BoomSwing = m.swing
	st.BoomLuff = m.luff
	st.BoomLen = m.boomLen
	st.CableLen = m.cableLen
	st.HookPos = m.hookPos
	st.HookVel = m.hookVel
	st.CargoMass = m.cargoMass
	st.CargoHeld = m.cargoHeld
	st.EngineRPM = m.rpm
	st.EngineOn = m.engineOn
	st.Stability = m.Stability()
	st.CargoPos = m.cargoPos
	st.CraneID = m.craneID
}

// MotionCue exports the cab's inertial cues for the motion platform (§3.4).
func (m *Model) MotionCue(frame uint32) fom.MotionCue {
	// Specific force in the cab frame: forward acceleration plus the
	// gravity components induced by the terrain posture.
	sf := mathx.V3(
		Gravity*math.Sin(m.roll),
		-Gravity*math.Cos(m.pitch)*math.Cos(m.roll),
		-m.accelFwd+Gravity*math.Sin(m.pitch),
	)
	vib := 0.0
	if m.engineOn {
		vib = 0.15 + 0.45*(m.rpm-m.cfg.IdleRPM)/math.Max(m.cfg.MaxRPM-m.cfg.IdleRPM, 1)
	}
	return fom.MotionCue{
		SpecificForce: sf,
		AngularRate:   mathx.V3(0, 0, m.prevYawR),
		Vibration:     mathx.Clamp(vib, 0, 1),
		Frame:         frame,
		CraneID:       m.craneID,
	}
}

// Time returns the model's accumulated simulation time.
func (m *Model) Time() float64 { return m.t }
