package fom

import (
	"codsim/internal/mathx"
	"codsim/internal/wire"
)

// Attribute handles of ClassControlInput.
const (
	CIAttrSteering  wire.AttrID = 1  // [-1, 1], left negative
	CIAttrThrottle  wire.AttrID = 2  // [0, 1] gas pedal
	CIAttrBrake     wire.AttrID = 3  // [0, 1] brake pedal
	CIAttrBoomJoyX  wire.AttrID = 4  // joystick 1 X: boom swing rate [-1, 1]
	CIAttrBoomJoyY  wire.AttrID = 5  // joystick 1 Y: boom luff rate [-1, 1]
	CIAttrHoistJoyX wire.AttrID = 6  // joystick 2 X: boom telescope rate [-1, 1]
	CIAttrHoistJoyY wire.AttrID = 7  // joystick 2 Y: hoist cable rate [-1, 1]
	CIAttrIgnition  wire.AttrID = 8  // engine master switch
	CIAttrGear      wire.AttrID = 9  // 0 neutral, 1 forward, 2 reverse
	CIAttrHookLatch wire.AttrID = 10 // cargo hook latch engaged
	CIAttrCraneID   wire.AttrID = 11 // addressed carrier; absent = crane 0
)

// ControlInput is the dashboard module's sampled operator input (§3.2):
// steering wheel, gas pedal, brake, and the two joysticks that control the
// derrick boom and the plumb cable.
type ControlInput struct {
	Steering  float64
	Throttle  float64
	Brake     float64
	BoomJoyX  float64 // swing (slew) command
	BoomJoyY  float64 // luff (raise/lower) command
	HoistJoyX float64 // telescope command
	HoistJoyY float64 // hoist (cable up/down) command
	Ignition  bool
	Gear      uint32
	HookLatch bool
	// CraneID addresses the carrier this input drives in a multi-crane
	// federation. Absent on the wire means crane 0 — the legacy
	// single-crane rule, so peers from older builds keep working
	// unchanged.
	CraneID int64
}

// EncodeInto packs the struct into a, replacing what a held, in a's own
// storage (see the package doc).
func (c ControlInput) EncodeInto(a *wire.AttrSet) {
	a.Reset()
	a.PutFloat64(CIAttrSteering, c.Steering)
	a.PutFloat64(CIAttrThrottle, c.Throttle)
	a.PutFloat64(CIAttrBrake, c.Brake)
	a.PutFloat64(CIAttrBoomJoyX, c.BoomJoyX)
	a.PutFloat64(CIAttrBoomJoyY, c.BoomJoyY)
	a.PutFloat64(CIAttrHoistJoyX, c.HoistJoyX)
	a.PutFloat64(CIAttrHoistJoyY, c.HoistJoyY)
	a.PutBool(CIAttrIgnition, c.Ignition)
	a.PutUint32(CIAttrGear, c.Gear)
	a.PutBool(CIAttrHookLatch, c.HookLatch)
	a.PutInt64(CIAttrCraneID, c.CraneID)
}

// DecodeControlInput unpacks an attribute set produced by EncodeInto.
func DecodeControlInput(a wire.AttrSet) (ControlInput, error) {
	var c ControlInput
	var ok bool
	if c.Steering, ok = a.Float64(CIAttrSteering); !ok {
		return c, missing(ClassControlInput, CIAttrSteering)
	}
	if c.Throttle, ok = a.Float64(CIAttrThrottle); !ok {
		return c, missing(ClassControlInput, CIAttrThrottle)
	}
	if c.Brake, ok = a.Float64(CIAttrBrake); !ok {
		return c, missing(ClassControlInput, CIAttrBrake)
	}
	if c.BoomJoyX, ok = a.Float64(CIAttrBoomJoyX); !ok {
		return c, missing(ClassControlInput, CIAttrBoomJoyX)
	}
	if c.BoomJoyY, ok = a.Float64(CIAttrBoomJoyY); !ok {
		return c, missing(ClassControlInput, CIAttrBoomJoyY)
	}
	if c.HoistJoyX, ok = a.Float64(CIAttrHoistJoyX); !ok {
		return c, missing(ClassControlInput, CIAttrHoistJoyX)
	}
	if c.HoistJoyY, ok = a.Float64(CIAttrHoistJoyY); !ok {
		return c, missing(ClassControlInput, CIAttrHoistJoyY)
	}
	if c.Ignition, ok = a.Bool(CIAttrIgnition); !ok {
		return c, missing(ClassControlInput, CIAttrIgnition)
	}
	if c.Gear, ok = a.Uint32(CIAttrGear); !ok {
		return c, missing(ClassControlInput, CIAttrGear)
	}
	if c.HookLatch, ok = a.Bool(CIAttrHookLatch); !ok {
		return c, missing(ClassControlInput, CIAttrHookLatch)
	}
	// CraneID was added with the multi-crane FOM revision; absent means
	// crane 0 so single-crane publishers keep decoding.
	if c.CraneID, ok = a.Int64(CIAttrCraneID); !ok {
		c.CraneID = 0
	}
	return c, nil
}

// Attribute handles of ClassCraneState.
const (
	CSAttrPosition  wire.AttrID = 1  // carrier position (m)
	CSAttrHeading   wire.AttrID = 2  // carrier yaw (rad)
	CSAttrPitch     wire.AttrID = 3  // carrier pitch from terrain (rad)
	CSAttrRoll      wire.AttrID = 4  // carrier roll from terrain (rad)
	CSAttrSpeed     wire.AttrID = 5  // carrier speed (m/s, signed)
	CSAttrBoomSwing wire.AttrID = 6  // boom slew angle rel. carrier (rad)
	CSAttrBoomLuff  wire.AttrID = 7  // boom elevation angle (rad)
	CSAttrBoomLen   wire.AttrID = 8  // boom extension length (m)
	CSAttrCableLen  wire.AttrID = 9  // plumb-cable paid-out length (m)
	CSAttrHookPos   wire.AttrID = 10 // hook world position (m)
	CSAttrHookVel   wire.AttrID = 11 // hook world velocity (m/s)
	CSAttrCargoMass wire.AttrID = 12 // suspended load (kg), 0 = none
	CSAttrCargoHeld wire.AttrID = 13 // cargo latched to hook
	CSAttrEngineRPM wire.AttrID = 14 // engine speed
	CSAttrEngineOn  wire.AttrID = 15 // engine running
	CSAttrStability wire.AttrID = 16 // tip-over margin [0,1], 1 = fully stable
	CSAttrCargoPos  wire.AttrID = 17 // cargo world position (m)
	CSAttrCargoID   wire.AttrID = 18 // held cargo's scenario index; -1 = none
	CSAttrCraneID   wire.AttrID = 19 // publishing carrier; absent = crane 0
)

// CraneState is the dynamics module's authoritative crane state (§3.6),
// broadcast to the displays, motion platform, instructor and scenario LPs.
type CraneState struct {
	Position  mathx.Vec3
	Heading   float64
	Pitch     float64
	Roll      float64
	Speed     float64
	BoomSwing float64
	BoomLuff  float64
	BoomLen   float64
	CableLen  float64
	HookPos   mathx.Vec3
	HookVel   mathx.Vec3
	CargoMass float64
	CargoHeld bool
	EngineRPM float64
	EngineOn  bool
	Stability float64
	CargoPos  mathx.Vec3
	// CargoID identifies the held cargo by its scenario cargo-set index;
	// -1 while nothing is held, and on telemetry from builds predating
	// the attribute (the scenario engine treats -1 as "unknown").
	CargoID int64
	// CraneID identifies the publishing carrier in a multi-crane
	// federation (index into scenario.Spec.Cranes). Absent on the wire
	// means crane 0 — the legacy single-crane rule.
	CraneID int64
}

// Encode packs the struct into a new attribute set (EncodeInto).
func (s CraneState) Encode() wire.AttrSet {
	a := wire.NewAttrSet(19)
	s.EncodeInto(&a)
	return a
}

// EncodeInto packs the struct into a, replacing what a held, in a's own
// storage (see the package doc).
func (s CraneState) EncodeInto(a *wire.AttrSet) {
	a.Reset()
	a.PutVec3(CSAttrPosition, s.Position.X, s.Position.Y, s.Position.Z)
	a.PutFloat64(CSAttrHeading, s.Heading)
	a.PutFloat64(CSAttrPitch, s.Pitch)
	a.PutFloat64(CSAttrRoll, s.Roll)
	a.PutFloat64(CSAttrSpeed, s.Speed)
	a.PutFloat64(CSAttrBoomSwing, s.BoomSwing)
	a.PutFloat64(CSAttrBoomLuff, s.BoomLuff)
	a.PutFloat64(CSAttrBoomLen, s.BoomLen)
	a.PutFloat64(CSAttrCableLen, s.CableLen)
	a.PutVec3(CSAttrHookPos, s.HookPos.X, s.HookPos.Y, s.HookPos.Z)
	a.PutVec3(CSAttrHookVel, s.HookVel.X, s.HookVel.Y, s.HookVel.Z)
	a.PutFloat64(CSAttrCargoMass, s.CargoMass)
	a.PutBool(CSAttrCargoHeld, s.CargoHeld)
	a.PutFloat64(CSAttrEngineRPM, s.EngineRPM)
	a.PutBool(CSAttrEngineOn, s.EngineOn)
	a.PutFloat64(CSAttrStability, s.Stability)
	a.PutVec3(CSAttrCargoPos, s.CargoPos.X, s.CargoPos.Y, s.CargoPos.Z)
	a.PutInt64(CSAttrCargoID, s.CargoID)
	a.PutInt64(CSAttrCraneID, s.CraneID)
}

// DecodeCraneState unpacks an attribute set produced by EncodeInto.
func DecodeCraneState(a wire.AttrSet) (CraneState, error) {
	var s CraneState
	var ok bool
	if s.Position.X, s.Position.Y, s.Position.Z, ok = a.Vec3(CSAttrPosition); !ok {
		return s, missing(ClassCraneState, CSAttrPosition)
	}
	if s.Heading, ok = a.Float64(CSAttrHeading); !ok {
		return s, missing(ClassCraneState, CSAttrHeading)
	}
	if s.Pitch, ok = a.Float64(CSAttrPitch); !ok {
		return s, missing(ClassCraneState, CSAttrPitch)
	}
	if s.Roll, ok = a.Float64(CSAttrRoll); !ok {
		return s, missing(ClassCraneState, CSAttrRoll)
	}
	if s.Speed, ok = a.Float64(CSAttrSpeed); !ok {
		return s, missing(ClassCraneState, CSAttrSpeed)
	}
	if s.BoomSwing, ok = a.Float64(CSAttrBoomSwing); !ok {
		return s, missing(ClassCraneState, CSAttrBoomSwing)
	}
	if s.BoomLuff, ok = a.Float64(CSAttrBoomLuff); !ok {
		return s, missing(ClassCraneState, CSAttrBoomLuff)
	}
	if s.BoomLen, ok = a.Float64(CSAttrBoomLen); !ok {
		return s, missing(ClassCraneState, CSAttrBoomLen)
	}
	if s.CableLen, ok = a.Float64(CSAttrCableLen); !ok {
		return s, missing(ClassCraneState, CSAttrCableLen)
	}
	if s.HookPos.X, s.HookPos.Y, s.HookPos.Z, ok = a.Vec3(CSAttrHookPos); !ok {
		return s, missing(ClassCraneState, CSAttrHookPos)
	}
	if s.HookVel.X, s.HookVel.Y, s.HookVel.Z, ok = a.Vec3(CSAttrHookVel); !ok {
		return s, missing(ClassCraneState, CSAttrHookVel)
	}
	if s.CargoMass, ok = a.Float64(CSAttrCargoMass); !ok {
		return s, missing(ClassCraneState, CSAttrCargoMass)
	}
	if s.CargoHeld, ok = a.Bool(CSAttrCargoHeld); !ok {
		return s, missing(ClassCraneState, CSAttrCargoHeld)
	}
	if s.EngineRPM, ok = a.Float64(CSAttrEngineRPM); !ok {
		return s, missing(ClassCraneState, CSAttrEngineRPM)
	}
	if s.EngineOn, ok = a.Bool(CSAttrEngineOn); !ok {
		return s, missing(ClassCraneState, CSAttrEngineOn)
	}
	if s.Stability, ok = a.Float64(CSAttrStability); !ok {
		return s, missing(ClassCraneState, CSAttrStability)
	}
	if s.CargoPos.X, s.CargoPos.Y, s.CargoPos.Z, ok = a.Vec3(CSAttrCargoPos); !ok {
		return s, missing(ClassCraneState, CSAttrCargoPos)
	}
	// CargoID was added after the first FOM revision; absent means -1
	// (none/unknown) so state from older builds still decodes.
	if s.CargoID, ok = a.Int64(CSAttrCargoID); !ok {
		s.CargoID = -1
	}
	// CraneID was added with the multi-crane FOM revision; absent means
	// crane 0 (the legacy single-crane publisher).
	if s.CraneID, ok = a.Int64(CSAttrCraneID); !ok {
		s.CraneID = 0
	}
	return s, nil
}
