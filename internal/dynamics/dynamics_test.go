package dynamics

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/terrain"
)

const dt = 1.0 / 60

func flatTerrain(t testing.TB) *terrain.Map {
	t.Helper()
	hs := make([]float64, 101*101)
	m, err := terrain.New(101, 101, 2, hs)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newModel(t testing.TB) *Model {
	t.Helper()
	m, err := NewCrane(DefaultConfig(), flatTerrain(t), NewWorld(), mathx.V3(100, 0, 100), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func drive(m *Model, in fom.ControlInput, seconds float64) {
	steps := int(seconds / dt)
	for i := 0; i < steps; i++ {
		m.Step(in, dt)
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero mass", func(c *Config) { c.Mass = 0 }},
		{"zero wheelbase", func(c *Config) { c.Wheelbase = 0 }},
		{"bad luff range", func(c *Config) { c.LuffMin = c.LuffMax }},
		{"bad boom range", func(c *Config) { c.BoomLenMin = c.BoomLenMax }},
		{"bad cable range", func(c *Config) { c.CableMin = c.CableMax }},
		{"zero hook mass", func(c *Config) { c.HookMass = 0 }},
		{"zero tip moment", func(c *Config) { c.TipMomentMax = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := DefaultConfig()
			tt.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if _, err := NewCrane(DefaultConfig(), nil, NewWorld(), mathx.Vec3{}, 0, 0); err == nil {
		t.Error("nil terrain accepted")
	}
}

func TestEngineEvents(t *testing.T) {
	m := newModel(t)
	ev := m.Step(fom.ControlInput{Ignition: true}, dt)
	if len(ev) != 1 || ev[0] != EventEngineStarted {
		t.Errorf("events = %v, want [EngineStarted]", ev)
	}
	// No repeat while held on.
	if ev := m.Step(fom.ControlInput{Ignition: true}, dt); len(ev) != 0 {
		t.Errorf("repeat events = %v", ev)
	}
	ev = m.Step(fom.ControlInput{Ignition: false}, dt)
	if len(ev) != 1 || ev[0] != EventEngineStopped {
		t.Errorf("events = %v, want [EngineStopped]", ev)
	}
	if m.State().EngineRPM != 0 {
		t.Errorf("rpm = %v after stop", m.State().EngineRPM)
	}
}

func TestDriveForward(t *testing.T) {
	m := newModel(t)
	in := fom.ControlInput{Ignition: true, Gear: 1, Throttle: 1}
	drive(m, in, 10)
	st := m.State()
	if st.Speed <= 1 {
		t.Fatalf("speed = %v after 10 s full throttle", st.Speed)
	}
	if st.Speed > DefaultConfig().MaxSpeed+1e-9 {
		t.Errorf("speed %v exceeds MaxSpeed", st.Speed)
	}
	// Heading 0 drives toward -Z.
	if st.Position.Z >= 100 {
		t.Errorf("position.Z = %v, expected to decrease", st.Position.Z)
	}
	if math.Abs(st.Position.X-100) > 0.5 {
		t.Errorf("position.X drifted to %v with zero steering", st.Position.X)
	}
	if st.EngineRPM <= DefaultConfig().IdleRPM {
		t.Errorf("rpm = %v at full throttle", st.EngineRPM)
	}
}

func TestNoDriveWithoutEngine(t *testing.T) {
	m := newModel(t)
	drive(m, fom.ControlInput{Gear: 1, Throttle: 1}, 2) // ignition off
	if st := m.State(); math.Abs(st.Speed) > 1e-9 {
		t.Errorf("speed = %v with engine off", st.Speed)
	}
}

func TestBrakeStopsVehicle(t *testing.T) {
	m := newModel(t)
	drive(m, fom.ControlInput{Ignition: true, Gear: 1, Throttle: 1}, 6)
	if m.State().Speed < 2 {
		t.Fatal("did not get up to speed")
	}
	drive(m, fom.ControlInput{Ignition: true, Brake: 1}, 6)
	if st := m.State(); math.Abs(st.Speed) > 0.01 {
		t.Errorf("speed = %v after full brake", st.Speed)
	}
}

func TestReverseGear(t *testing.T) {
	m := newModel(t)
	drive(m, fom.ControlInput{Ignition: true, Gear: 2, Throttle: 0.8}, 5)
	st := m.State()
	if st.Speed >= 0 {
		t.Errorf("speed = %v in reverse", st.Speed)
	}
	if st.Speed < -DefaultConfig().MaxReverse-1e-9 {
		t.Errorf("reverse speed %v exceeds limit", st.Speed)
	}
	if st.Position.Z <= 100 {
		t.Errorf("position.Z = %v, expected to increase in reverse", st.Position.Z)
	}
}

func TestSteeringTurns(t *testing.T) {
	m := newModel(t)
	in := fom.ControlInput{Ignition: true, Gear: 1, Throttle: 0.5, Steering: 1}
	drive(m, in, 5)
	if h := m.State().Heading; h <= 0.05 {
		t.Errorf("heading = %v after right turn", h)
	}
	// Steering does nothing when stationary.
	m2 := newModel(t)
	drive(m2, fom.ControlInput{Ignition: true, Steering: 1}, 2)
	if h := m2.State().Heading; math.Abs(h) > 1e-9 {
		t.Errorf("heading = %v while parked", h)
	}
}

func TestBoomAxesRespectLimits(t *testing.T) {
	m := newModel(t)
	cfg := DefaultConfig()
	// Raise and extend everything to the stops.
	in := fom.ControlInput{Ignition: true, BoomJoyY: 1, HoistJoyX: 1, HoistJoyY: 1}
	drive(m, in, 40)
	st := m.State()
	if math.Abs(st.BoomLuff-cfg.LuffMax) > 1e-6 {
		t.Errorf("luff = %v, want max %v", st.BoomLuff, cfg.LuffMax)
	}
	if math.Abs(st.BoomLen-cfg.BoomLenMax) > 1e-6 {
		t.Errorf("boomLen = %v, want max %v", st.BoomLen, cfg.BoomLenMax)
	}
	if math.Abs(st.CableLen-cfg.CableMax) > 1e-6 {
		t.Errorf("cableLen = %v, want max %v", st.CableLen, cfg.CableMax)
	}
	// And back down to the lower stops.
	in = fom.ControlInput{Ignition: true, BoomJoyY: -1, HoistJoyX: -1, HoistJoyY: -1}
	drive(m, in, 60)
	st = m.State()
	if math.Abs(st.BoomLuff-cfg.LuffMin) > 1e-6 {
		t.Errorf("luff = %v, want min %v", st.BoomLuff, cfg.LuffMin)
	}
	if math.Abs(st.BoomLen-cfg.BoomLenMin) > 1e-6 {
		t.Errorf("boomLen = %v, want min", st.BoomLen)
	}
	if math.Abs(st.CableLen-cfg.CableMin) > 1e-6 {
		t.Errorf("cableLen = %v, want min", st.CableLen)
	}
}

func TestBoomNeedsEngine(t *testing.T) {
	m := newModel(t)
	before := m.State().BoomSwing
	drive(m, fom.ControlInput{BoomJoyX: 1}, 3) // engine off
	if got := m.State().BoomSwing; math.Abs(got-before) > 1e-9 {
		t.Errorf("swing moved %v with engine off", got-before)
	}
}

func TestBoomSwing(t *testing.T) {
	m := newModel(t)
	drive(m, fom.ControlInput{Ignition: true, BoomJoyX: 1}, 2)
	if got := m.State().BoomSwing; got <= 0.05 {
		t.Errorf("swing = %v after 2 s full slew", got)
	}
}

func TestBoomTipGeometry(t *testing.T) {
	m := newModel(t)
	cfg := DefaultConfig()
	tip := m.BoomTip()
	// At swing 0 the boom points forward (-Z) and elevates by luffMin.
	wantY := cfg.BoomPivot.Y + cfg.BoomLenMin*math.Sin(cfg.LuffMin)
	if math.Abs(tip.Y-wantY) > 1e-9 {
		t.Errorf("tip.Y = %v, want %v", tip.Y, wantY)
	}
	if tip.Z >= 100 {
		t.Errorf("tip.Z = %v, want in front of carrier (< 100)", tip.Z)
	}
	if math.Abs(tip.X-100) > 1e-9 {
		t.Errorf("tip.X = %v, want centered", tip.X)
	}
}

// TestBoomTracksHeading pins the frame convention: with the boom centered,
// the boom tip must lie along the direction of travel for any heading.
func TestBoomTracksHeading(t *testing.T) {
	for _, heading := range []float64{0, math.Pi / 2, math.Pi, -math.Pi / 3} {
		m, err := NewCrane(DefaultConfig(), flatTerrain(t), NewWorld(), mathx.V3(100, 0, 100), heading, 0)
		if err != nil {
			t.Fatal(err)
		}
		fwd := mathx.V3(math.Sin(heading), 0, -math.Cos(heading))
		tip := m.BoomTip()
		horiz := mathx.V3(tip.X-100, 0, tip.Z-100).Normalize()
		if horiz.Dot(fwd) < 0.99 {
			t.Errorf("heading %v: boom tip toward %v, travel direction %v", heading, horiz, fwd)
		}
	}
}

// TestHookPendulumPeriod verifies the inertia oscillation has the physical
// pendulum period T = 2π√(L/g) within tolerance.
func TestHookPendulumPeriod(t *testing.T) {
	m := newModel(t)
	m.cfg.CableDrag = 0.01 // nearly undamped for the measurement
	// Displace the hook and let it swing.
	tip := m.BoomTip()
	L := m.cableLen
	m.hookPos = tip.Add(mathx.V3(math.Sin(0.15)*L, -math.Cos(0.15)*L, 0))
	m.hookVel = mathx.Vec3{}

	// Track zero crossings of the X displacement relative to the tip.
	var crossings []float64
	prev := m.hookPos.X - tip.X
	in := fom.ControlInput{}
	for step := 0; step < 60*20; step++ {
		m.Step(in, dt)
		cur := m.hookPos.X - m.BoomTip().X
		if prev > 0 && cur <= 0 || prev < 0 && cur >= 0 {
			crossings = append(crossings, m.Time())
		}
		prev = cur
	}
	if len(crossings) < 4 {
		t.Fatalf("only %d zero crossings; pendulum not oscillating", len(crossings))
	}
	period := 2 * (crossings[len(crossings)-1] - crossings[0]) / float64(len(crossings)-1)
	want := 2 * math.Pi * math.Sqrt(L/Gravity)
	if math.Abs(period-want) > want*0.1 {
		t.Errorf("period = %v, want %v ±10%%", period, want)
	}
}

// TestHookOscillationDecays verifies the §3.6 behaviour: after the boom
// stops, the hook oscillates with decreasing amplitude until a full stop.
func TestHookOscillationDecays(t *testing.T) {
	m := newModel(t)
	// Raise the boom high so the hook hangs free of the ground, then slew
	// hard and stop.
	drive(m, fom.ControlInput{Ignition: true, BoomJoyY: 1}, 5)
	drive(m, fom.ControlInput{Ignition: true, BoomJoyX: 1}, 2)
	drive(m, fom.ControlInput{Ignition: true}, 1) // joystick released

	amplitude := func(win int) float64 {
		maxAmp := 0.0
		for i := 0; i < win; i++ {
			m.Step(fom.ControlInput{Ignition: true}, dt)
			tip := m.BoomTip()
			lateral := math.Hypot(m.hookPos.X-tip.X, m.hookPos.Z-tip.Z)
			if lateral > maxAmp {
				maxAmp = lateral
			}
		}
		return maxAmp
	}
	early := amplitude(60 * 4)
	late := amplitude(60 * 16)
	if early < 0.05 {
		t.Fatalf("early amplitude %v: boom motion did not excite the hook", early)
	}
	if late > early*0.7 {
		t.Errorf("amplitude %v -> %v: oscillation not decaying", early, late)
	}
}

func TestHeavierCargoDampsSlower(t *testing.T) {
	run := func(mass float64) float64 {
		m := newModel(t)
		if mass > 0 {
			m.cargoHeld = true
			m.cargoMass = mass
		}
		tip := m.BoomTip()
		m.hookPos = tip.Add(mathx.V3(1.5, -m.cableLen+0.3, 0))
		for i := 0; i < 60*10; i++ {
			m.Step(fom.ControlInput{}, dt)
		}
		tip = m.BoomTip()
		return math.Hypot(m.hookPos.X-tip.X, m.hookPos.Z-tip.Z)
	}
	light := run(0)
	heavy := run(3000)
	if heavy <= light {
		t.Errorf("heavy cargo residual %v <= light %v: mass should slow damping", heavy, light)
	}
}

func TestCargoLatchRelease(t *testing.T) {
	m := newModel(t)
	// Put cargo directly under the hook's rest position.
	rest := m.hookPos
	m.world.AddCargoHooks(rest.Sub(mathx.V3(0, 0.6, 0)), 1200, 1)

	ev := m.Step(fom.ControlInput{Ignition: true, HookLatch: true}, dt)
	found := false
	for _, e := range ev {
		if e == EventCargoLatched {
			found = true
		}
	}
	if !found {
		t.Fatalf("events = %v, want CargoLatched", ev)
	}
	st := m.State()
	if !st.CargoHeld || st.CargoMass != 1200 {
		t.Errorf("state = held:%v mass:%v", st.CargoHeld, st.CargoMass)
	}

	// Carried cargo follows the hook.
	drive(m, fom.ControlInput{Ignition: true, HookLatch: true, HoistJoyY: -0.5}, 2)
	st = m.State()
	if st.CargoPos.Dist(st.HookPos) > 1 {
		t.Errorf("cargo %v strayed from hook %v", st.CargoPos, st.HookPos)
	}

	ev = m.Step(fom.ControlInput{Ignition: true, HookLatch: false}, dt)
	found = false
	for _, e := range ev {
		if e == EventCargoReleased {
			found = true
		}
	}
	if !found {
		t.Fatalf("events = %v, want CargoReleased", ev)
	}
	if m.State().CargoHeld {
		t.Error("cargo still held after release")
	}
}

func TestLatchOutOfRangeFails(t *testing.T) {
	m := newModel(t)
	m.world.AddCargoHooks(mathx.V3(50, 0, 50), 1000, 1) // far away
	ev := m.Step(fom.ControlInput{Ignition: true, HookLatch: true}, dt)
	for _, e := range ev {
		if e == EventCargoLatched {
			t.Fatal("latched cargo 70 m away")
		}
	}
	if m.State().CargoHeld {
		t.Error("cargo held")
	}
}

func TestStabilityMarginDropsWithReach(t *testing.T) {
	m := newModel(t)
	m.cargoHeld = true
	m.cargoMass = 5000
	stowed := m.Stability()
	// Extend and lower the boom: longer lever arm, lower margin.
	drive(m, fom.ControlInput{Ignition: true, HoistJoyX: 1}, 20)
	drive(m, fom.ControlInput{Ignition: true, HoistJoyY: 1}, 8)
	// Settle the hook under the extended tip.
	drive(m, fom.ControlInput{Ignition: true}, 8)
	extended := m.Stability()
	if extended >= stowed {
		t.Errorf("stability %v -> %v: should drop with reach", stowed, extended)
	}
	if extended < 0 || extended > 1 || stowed < 0 || stowed > 1 {
		t.Errorf("stability out of [0,1]: %v, %v", stowed, extended)
	}
}

func TestTerrainFollowingOnSlope(t *testing.T) {
	// A ramp rising along +X; vehicle heading +X must pitch up.
	w, h := 60, 60
	hs := make([]float64, w*h)
	for iz := 0; iz < h; iz++ {
		for ix := 0; ix < w; ix++ {
			hs[iz*w+ix] = 0.15 * float64(ix) * 2
		}
	}
	ter, err := terrain.New(w, h, 2, hs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewCrane(DefaultConfig(), ter, NewWorld(), mathx.V3(60, 0, 60), math.Pi/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Hold the brake while the posture settles so gravity cannot roll the
	// truck off the reference point.
	drive(m, fom.ControlInput{Ignition: true, Brake: 1}, 2)
	st := m.State()
	wantPitch := math.Atan(0.15)
	if math.Abs(st.Pitch-wantPitch) > 0.02 {
		t.Errorf("pitch = %v, want %v", st.Pitch, wantPitch)
	}
	if math.Abs(st.Position.Y-ter.HeightAt(st.Position.X, st.Position.Z)) > 1e-9 {
		t.Errorf("height = %v, want terrain %v", st.Position.Y, ter.HeightAt(st.Position.X, st.Position.Z))
	}
	if math.Abs(st.Speed) > 1e-9 {
		t.Errorf("speed = %v while braked", st.Speed)
	}
	// Releasing the brake on the uphill slope lets the truck roll back.
	drive(m, fom.ControlInput{Ignition: true, Gear: 0}, 3)
	if m.State().Speed >= -0.01 {
		t.Errorf("speed = %v: should roll back on uphill slope", m.State().Speed)
	}
}

func TestMotionCueVibration(t *testing.T) {
	m := newModel(t)
	cue := m.MotionCue(1)
	if cue.Vibration != 0 {
		t.Errorf("vibration = %v with engine off", cue.Vibration)
	}
	drive(m, fom.ControlInput{Ignition: true}, 1)
	idle := m.MotionCue(2).Vibration
	if idle <= 0 {
		t.Error("no vibration at idle")
	}
	drive(m, fom.ControlInput{Ignition: true, Throttle: 1, Gear: 1}, 2)
	full := m.MotionCue(3).Vibration
	if full <= idle {
		t.Errorf("vibration idle %v -> full %v: should increase with rpm", idle, full)
	}
	if full > 1 {
		t.Errorf("vibration %v > 1", full)
	}
	// Gravity shows up in the specific force when parked on flat ground.
	m2 := newModel(t)
	sf := m2.MotionCue(0).SpecificForce
	if math.Abs(sf.Y+Gravity) > 0.2 {
		t.Errorf("specific force Y = %v, want ≈ -g", sf.Y)
	}
}

func TestStateRoundTripsThroughFOM(t *testing.T) {
	m := newModel(t)
	drive(m, fom.ControlInput{Ignition: true, Gear: 1, Throttle: 0.5, BoomJoyX: 0.3}, 2)
	st := m.State()
	dec, err := fom.DecodeCraneState(st.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if dec != st {
		t.Error("CraneState does not survive FOM round trip")
	}
}

func BenchmarkDynamicsStep(b *testing.B) {
	hs := make([]float64, 101*101)
	ter, err := terrain.New(101, 101, 2, hs)
	if err != nil {
		b.Fatal(err)
	}
	m, err := NewCrane(DefaultConfig(), ter, NewWorld(), mathx.V3(100, 0, 100), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	in := fom.ControlInput{Ignition: true, Gear: 1, Throttle: 0.7, Steering: 0.2, BoomJoyX: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Step(in, dt)
	}
}

// parkedInput holds a carrier where it stands.
var parkedInput = fom.ControlInput{Ignition: true, Brake: 1}

// parkedModel is drivenIn's crane left parked for 12 000 ticks (200
// simulated seconds) — what a stalled dry-run's carrier does.
func parkedModel(t testing.TB) *Model {
	t.Helper()
	m := drivenIn(t)
	for i := 0; i < 12000; i++ {
		m.Step(parkedInput, dt)
	}
	return m
}

// drivenIn drives a crane off the sloping rim of the site's test ground
// onto its levelled middle and brakes it to a stop there. Its pitch and
// roll are still decaying from the rim's tilt, at about 2⁻⁹⁰.
func drivenIn(t testing.TB) *Model {
	t.Helper()
	m, err := NewCrane(DefaultConfig(), terrain.DefaultMap(), NewWorld(),
		mathx.V3(terrain.TestGroundX-40, 0, terrain.TestGroundZ+3), math.Pi/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.pitch == 0 || m.roll == 0 {
		t.Fatalf("start posture pitch %v roll %v: the rim should tilt the carrier", m.pitch, m.roll)
	}
	drive(m, fom.ControlInput{Ignition: true, Gear: 1, Throttle: 0.6}, 8)
	drive(m, parkedInput, 4)
	if d := math.Hypot(m.pos.X-terrain.TestGroundX, m.pos.Z-terrain.TestGroundZ); m.speed != 0 || d > 25 {
		t.Fatalf("not parked on the levelled ground: speed %v, %.1f m from its centre", m.speed, d)
	}
	return m
}

func subnormal(x float64) bool { return x != 0 && math.Abs(x) < 0x1p-1022 }

// A carrier parked on ground the terrain reports as exactly level keeps a
// pitch and roll that decay toward 0 without ever reaching it: they go
// subnormal and stay there, and that is what State publishes. What the
// kernel computes with is the levelled read — no subnormal reaches the
// carrier rotation or the stability margin, and the margin is bit for bit
// the one a level carrier has.
func TestParkedCarrierComputesLevel(t *testing.T) {
	m := parkedModel(t)
	st := m.State()
	if !subnormal(st.Pitch) || !subnormal(st.Roll) {
		t.Fatalf("published pitch %v roll %v: want both subnormal after 200 s parked", st.Pitch, st.Roll)
	}
	rot := m.CarrierRot()
	for _, c := range []float64{rot.W, rot.X, rot.Y, rot.Z} {
		if subnormal(c) {
			t.Fatalf("CarrierRot %+v has a subnormal component", rot)
		}
	}
	if want := mathx.QuatEuler(-m.heading, 0, 0); rot != want {
		t.Fatalf("CarrierRot %+v, want the level rotation %+v", rot, want)
	}
	arm := math.Hypot(st.HookPos.X-st.Position.X, st.HookPos.Z-st.Position.Z)
	want := mathx.Clamp(1-m.cfg.HookMass*Gravity*arm/m.cfg.TipMomentMax, 0, 1)
	if got := m.Stability(); !same(got, want) || !same(st.Stability, want) {
		t.Fatalf("stability %v (published %v), want the level-ground %v", got, st.Stability, want)
	}
	// The stored angles are left alone: they keep decaying as they did.
	pitch, roll := m.pitch, m.roll
	m.Step(parkedInput, dt)
	if math.Abs(m.pitch) > math.Abs(pitch) || math.Abs(m.roll) > math.Abs(roll) || m.pitch == 0 || m.roll == 0 {
		t.Fatalf("stored attitude (%v, %v) -> (%v, %v): want an undisturbed decay", pitch, roll, m.pitch, m.roll)
	}
	// Off the brake the slope force is integrated into the published speed,
	// so there the pitch is read with every bit: the carrier creeps by the
	// subnormal step it always did.
	creep := -m.cfg.Mass * Gravity * math.Sin(m.pitch) / m.cfg.Mass * dt
	m.Step(fom.ControlInput{Ignition: true}, dt)
	if creep == 0 || !same(m.speed, creep) {
		t.Fatalf("speed %v one tick off the brake, want the slope's %v", m.speed, creep)
	}
}

// BenchmarkParkedStep is one 60 Hz step of the crane parkedModel leaves
// behind: the step a stalled dry-run repeats until its stall window closes.
func BenchmarkParkedStep(b *testing.B) {
	m := parkedModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(parkedInput, dt)
	}
}

// settleTicks is the window BenchmarkSettlingStep steps through after
// drivenIn: the pitch and roll decay from about 2⁻⁹⁰ through the normal
// magnitudes whose powers are subnormal, and both read as level from
// tick 5344 on.
const settleTicks = 6000

// BenchmarkSettlingStep is one 60 Hz step of drivenIn's crane in the
// settleTicks after it stops, rebuilt untimed every settleTicks ops: the
// first 100 seconds of a stall window, which BenchmarkParkedStep, 12 000
// ticks on, does not see.
func BenchmarkSettlingStep(b *testing.B) {
	var m *Model
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%settleTicks == 0 {
			b.StopTimer()
			m = drivenIn(b)
			b.StartTimer()
		}
		m.Step(parkedInput, dt)
	}
}

func vecBits(v mathx.Vec3) [3]uint64 {
	return [3]uint64{math.Float64bits(v.X), math.Float64bits(v.Y), math.Float64bits(v.Z)}
}

func quatBits(q mathx.Quat) [4]uint64 {
	return [4]uint64{math.Float64bits(q.W), math.Float64bits(q.X), math.Float64bits(q.Y), math.Float64bits(q.Z)}
}

// TestPoseMemoMatchesRecompute drives a model's heading, swing, luff, pitch
// and roll through random sequences — repeated values, swaps between +0
// and -0, tiny and ordinary angles, queries between poses in every
// combination — and checks that the memoized BoomTip and CarrierRot always
// equal the same pose on a copy with an empty frame, and the formulas they
// memoize, with the stdlib's trigonometry, bit for bit.
func TestPoseMemoMatchesRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	m := newModel(t)
	angle := func(prev float64) float64 {
		switch r.Intn(6) {
		case 0, 1:
			return prev // unchanged: the memo answers
		case 2:
			return math.Copysign(0, -prev) // a zero of the other sign
		case 3:
			return math.Ldexp(r.Float64()-0.5, -r.Intn(1060)) // tiny, subnormal or ±0
		default:
			return r.Float64()*2*math.Pi - math.Pi
		}
	}
	for i := 0; i < 20000; i++ {
		m.heading, m.swing, m.luff = angle(m.heading), angle(m.swing), angle(m.luff)
		m.pitch, m.roll = angle(m.pitch), angle(m.roll)
		if r.Intn(3) == 0 {
			continue // a pose nobody asked about
		}
		fresh := *m
		fresh.frame = unsetFrame()
		rotRef := mathx.QuatEuler(-m.heading, level(m.pitch), -level(m.roll))
		sinS, cosS := math.Sincos(m.swing)
		sinL, cosL := math.Sincos(m.luff)
		local := m.cfg.BoomPivot.Add(mathx.V3(sinS*cosL, sinL, -cosS*cosL).Scale(m.boomLen))
		tipRef := m.pos.Add(rotRef.Rotate(local))

		tipFirst := r.Intn(2) == 0
		var tip mathx.Vec3
		if tipFirst {
			tip = m.BoomTip()
		}
		rot := m.CarrierRot()
		if !tipFirst {
			tip = m.BoomTip()
		}
		if quatBits(rot) != quatBits(fresh.CarrierRot()) || quatBits(rot) != quatBits(rotRef) {
			t.Fatalf("tick %d: CarrierRot %+v, fresh %+v, formula %+v (heading %b pitch %b roll %b)",
				i, rot, fresh.CarrierRot(), rotRef, m.heading, m.pitch, m.roll)
		}
		if vecBits(tip) != vecBits(fresh.BoomTip()) || vecBits(tip) != vecBits(tipRef) {
			t.Fatalf("tick %d: BoomTip %+v, fresh %+v, formula %+v (swing %b luff %b)",
				i, tip, fresh.BoomTip(), tipRef, m.swing, m.luff)
		}
		// The tip's sum with the carrier position can hide the sign of a
		// zero sine, so the kept answers are held to the stdlib directly.
		f := &m.frame
		for _, c := range []struct {
			in       float64
			sin, cos float64
		}{{m.heading, f.sinH, f.cosH}, {-m.heading / 2, f.sinY, f.cosY}, {m.swing, f.sinS, f.cosS}, {m.luff, f.sinL, f.cosL}} {
			if s, co := math.Sincos(c.in); !same(s, c.sin) || !same(co, c.cos) {
				t.Fatalf("tick %d: kept Sincos(%b) = (%b, %b), stdlib (%b, %b)", i, c.in, c.sin, c.cos, s, co)
			}
		}
	}
}

// fill sets every leaf of v to x, read as the leaf's kind.
func fill(v reflect.Value, x float64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), x)
		}
	case reflect.Float64:
		v.SetFloat(x)
	case reflect.Int64:
		v.SetInt(int64(x))
	case reflect.Bool:
		v.SetBool(x > 0)
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// TestStateToSetsEveryField: StateTo assigns the state field by field, so
// a field it missed would keep what st held before. From two different
// fillings it must write State both times.
func TestStateToSetsEveryField(t *testing.T) {
	m := newModel(t)
	drive(m, fom.ControlInput{Ignition: true, Gear: 1, Throttle: 0.5, BoomJoyX: 0.3}, 2)
	want := m.State()
	for _, x := range []float64{-7, 1e9} {
		var st fom.CraneState
		fill(reflect.ValueOf(&st).Elem(), x)
		m.StateTo(&st)
		if st != want {
			t.Fatalf("StateTo over a state filled with %v wrote %+v, State is %+v", x, st, want)
		}
	}
}
