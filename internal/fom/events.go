package fom

import (
	"codsim/internal/mathx"
	"codsim/internal/wire"
)

// Attribute handles of ClassMotionCue.
const (
	MCAttrSpecificForce wire.AttrID = 1 // cab specific force (m/s²)
	MCAttrAngularRate   wire.AttrID = 2 // cab angular rates (rad/s): roll,pitch,yaw
	MCAttrVibration     wire.AttrID = 3 // engine vibration intensity [0,1]
	MCAttrFrame         wire.AttrID = 4 // visual frame index the cue belongs to
	MCAttrCraneID       wire.AttrID = 5 // cueing carrier; absent = crane 0
)

// MotionCue carries the cab's inertial cues from the dynamics module to the
// motion-platform controller (§3.4). The frame index lets the controller
// keep the platform interpolation synchronized with the visual display.
type MotionCue struct {
	SpecificForce mathx.Vec3 // felt acceleration incl. gravity tilt, m/s²
	AngularRate   mathx.Vec3 // X=roll rate, Y=pitch rate, Z=yaw rate, rad/s
	Vibration     float64    // engine vibration intensity [0,1]
	Frame         uint32
	// CraneID identifies the cueing carrier in a multi-crane federation;
	// absent on the wire means crane 0 (the legacy single-cab rule).
	CraneID int64
}

// Encode packs the struct into an attribute set.
func (m MotionCue) Encode() wire.AttrSet {
	a := wire.NewAttrSet(4)
	a.PutVec3(MCAttrSpecificForce, m.SpecificForce.X, m.SpecificForce.Y, m.SpecificForce.Z)
	a.PutVec3(MCAttrAngularRate, m.AngularRate.X, m.AngularRate.Y, m.AngularRate.Z)
	a.PutFloat64(MCAttrVibration, m.Vibration)
	a.PutUint32(MCAttrFrame, m.Frame)
	a.PutInt64(MCAttrCraneID, m.CraneID)
	return a
}

// DecodeMotionCue unpacks an attribute set produced by Encode.
func DecodeMotionCue(a wire.AttrSet) (MotionCue, error) {
	var m MotionCue
	var ok bool
	if m.SpecificForce.X, m.SpecificForce.Y, m.SpecificForce.Z, ok = a.Vec3(MCAttrSpecificForce); !ok {
		return m, missing(ClassMotionCue, MCAttrSpecificForce)
	}
	if m.AngularRate.X, m.AngularRate.Y, m.AngularRate.Z, ok = a.Vec3(MCAttrAngularRate); !ok {
		return m, missing(ClassMotionCue, MCAttrAngularRate)
	}
	if m.Vibration, ok = a.Float64(MCAttrVibration); !ok {
		return m, missing(ClassMotionCue, MCAttrVibration)
	}
	if m.Frame, ok = a.Uint32(MCAttrFrame); !ok {
		return m, missing(ClassMotionCue, MCAttrFrame)
	}
	// CraneID was added with the multi-crane FOM revision; absent means
	// crane 0.
	if m.CraneID, ok = a.Int64(MCAttrCraneID); !ok {
		m.CraneID = 0
	}
	return m, nil
}

// Sound identifies one audio asset of the audio module (§3.7).
type Sound uint32

// Sound identifiers. Values start at 1; 0 is invalid.
const (
	SoundEngineStart Sound = iota + 1
	SoundEngineLoop
	SoundEngineStop
	SoundCollision
	SoundAlarm
	SoundHoistMotor
	SoundBackground
)

// Attribute handles of ClassAudioEvent.
const (
	AEAttrSound    wire.AttrID = 1 // Sound identifier
	AEAttrGain     wire.AttrID = 2 // [0,1]
	AEAttrPosition wire.AttrID = 3 // world position for attenuation
	AEAttrLoop     wire.AttrID = 4 // start a loop (true) or one-shot
	AEAttrStop     wire.AttrID = 5 // stop the loop of this sound
)

// AudioEvent asks the audio module to start or stop a sound.
type AudioEvent struct {
	Sound    Sound
	Gain     float64
	Position mathx.Vec3
	Loop     bool
	Stop     bool
}

// Encode packs the struct into an attribute set.
func (e AudioEvent) Encode() wire.AttrSet {
	a := wire.NewAttrSet(5)
	a.PutUint32(AEAttrSound, uint32(e.Sound))
	a.PutFloat64(AEAttrGain, e.Gain)
	a.PutVec3(AEAttrPosition, e.Position.X, e.Position.Y, e.Position.Z)
	a.PutBool(AEAttrLoop, e.Loop)
	a.PutBool(AEAttrStop, e.Stop)
	return a
}

// DecodeAudioEvent unpacks an attribute set produced by Encode.
func DecodeAudioEvent(a wire.AttrSet) (AudioEvent, error) {
	var e AudioEvent
	var ok bool
	var s uint32
	if s, ok = a.Uint32(AEAttrSound); !ok {
		return e, missing(ClassAudioEvent, AEAttrSound)
	}
	e.Sound = Sound(s)
	if e.Gain, ok = a.Float64(AEAttrGain); !ok {
		return e, missing(ClassAudioEvent, AEAttrGain)
	}
	if e.Position.X, e.Position.Y, e.Position.Z, ok = a.Vec3(AEAttrPosition); !ok {
		return e, missing(ClassAudioEvent, AEAttrPosition)
	}
	if e.Loop, ok = a.Bool(AEAttrLoop); !ok {
		return e, missing(ClassAudioEvent, AEAttrLoop)
	}
	if e.Stop, ok = a.Bool(AEAttrStop); !ok {
		return e, missing(ClassAudioEvent, AEAttrStop)
	}
	return e, nil
}

// Phase enumerates the scenario state machine of §3.5: drive to the test
// ground, then the licensing trajectory of Fig. 9.
type Phase uint32

// Scenario phases. Values start at 1; 0 is invalid.
const (
	PhaseIdle     Phase = iota + 1 // engine off, waiting for start
	PhaseDriving                   // drive from start point to test ground
	PhaseLifting                   // lift the cargo from the white circle
	PhaseTraverse                  // carry the cargo along the bar course
	PhaseReturn                    // bring the cargo back to the circle
	PhaseComplete                  // exam passed
	PhaseFailed                    // exam failed
)

var phaseNames = map[Phase]string{
	PhaseIdle:     "idle",
	PhaseDriving:  "driving",
	PhaseLifting:  "lifting",
	PhaseTraverse: "traverse",
	PhaseReturn:   "return",
	PhaseComplete: "complete",
	PhaseFailed:   "failed",
}

// String returns the lowercase phase name.
func (p Phase) String() string {
	if s, ok := phaseNames[p]; ok {
		return s
	}
	return "unknown"
}

// Attribute handles of ClassScenarioState.
const (
	SSAttrPhase      wire.AttrID = 1
	SSAttrScore      wire.AttrID = 2 // current exam score
	SSAttrElapsed    wire.AttrID = 3 // seconds since scenario start
	SSAttrCollisions wire.AttrID = 4 // bar collisions so far
	SSAttrWaypoint   wire.AttrID = 5 // next waypoint index in the course
	SSAttrMessage    wire.AttrID = 6 // operator-facing status text
	SSAttrPhaseIndex wire.AttrID = 7 // index into the scenario's phase graph
	SSAttrCraneID    wire.AttrID = 8 // crane the state refers to; absent = 0
)

// ScenarioState is the scenario module's published training state (§3.5).
type ScenarioState struct {
	Phase      Phase
	Score      float64
	Elapsed    float64
	Collisions uint32
	Waypoint   uint32
	Message    string
	// PhaseIndex locates the active node of the scenario's phase graph
	// (scenario.Spec.Phases). Phase is the coarse classification of that
	// node; PhaseIndex disambiguates scenarios with several phases of the
	// same kind (two lifts, two traverses). Meaningless while Phase is
	// idle, complete or failed. PhaseIndexUnknown marks telemetry from
	// builds predating the attribute — consumers fall back to the coarse
	// Phase then.
	PhaseIndex uint32
	// CraneID names the crane whose cursor this state describes: in a
	// multi-crane scenario the engine publishes one ScenarioState per
	// declared crane, each carrying that crane's PhaseIndex, Waypoint and
	// Message (Score, Elapsed and Collisions are shared by the whole
	// scenario). Absent on the wire means crane 0 — the legacy
	// single-crane rule, so older publishers keep working.
	CraneID int64
}

// PhaseIndexUnknown is the PhaseIndex sentinel for telemetry that carries
// no phase-graph index (older publishers).
const PhaseIndexUnknown = ^uint32(0)

// Encode packs the struct into an attribute set.
func (s ScenarioState) Encode() wire.AttrSet {
	a := wire.NewAttrSet(7)
	a.PutUint32(SSAttrPhase, uint32(s.Phase))
	a.PutFloat64(SSAttrScore, s.Score)
	a.PutFloat64(SSAttrElapsed, s.Elapsed)
	a.PutUint32(SSAttrCollisions, s.Collisions)
	a.PutUint32(SSAttrWaypoint, s.Waypoint)
	a.PutString(SSAttrMessage, s.Message)
	a.PutUint32(SSAttrPhaseIndex, s.PhaseIndex)
	a.PutInt64(SSAttrCraneID, s.CraneID)
	return a
}

// DecodeScenarioState unpacks an attribute set produced by Encode.
func DecodeScenarioState(a wire.AttrSet) (ScenarioState, error) {
	var s ScenarioState
	var ok bool
	var p uint32
	if p, ok = a.Uint32(SSAttrPhase); !ok {
		return s, missing(ClassScenarioState, SSAttrPhase)
	}
	s.Phase = Phase(p)
	if s.Score, ok = a.Float64(SSAttrScore); !ok {
		return s, missing(ClassScenarioState, SSAttrScore)
	}
	if s.Elapsed, ok = a.Float64(SSAttrElapsed); !ok {
		return s, missing(ClassScenarioState, SSAttrElapsed)
	}
	if s.Collisions, ok = a.Uint32(SSAttrCollisions); !ok {
		return s, missing(ClassScenarioState, SSAttrCollisions)
	}
	if s.Waypoint, ok = a.Uint32(SSAttrWaypoint); !ok {
		return s, missing(ClassScenarioState, SSAttrWaypoint)
	}
	if s.Message, ok = a.String(SSAttrMessage); !ok {
		return s, missing(ClassScenarioState, SSAttrMessage)
	}
	// PhaseIndex was added after the first FOM revision; absent means
	// PhaseIndexUnknown so peers from older builds still decode without
	// masquerading as phase 0.
	if s.PhaseIndex, ok = a.Uint32(SSAttrPhaseIndex); !ok {
		s.PhaseIndex = PhaseIndexUnknown
	}
	// CraneID was added with the multi-crane FOM revision; absent means
	// crane 0 (single-crane scenarios publish exactly one state).
	if s.CraneID, ok = a.Int64(SSAttrCraneID); !ok {
		s.CraneID = 0
	}
	return s, nil
}

// InstructorOp enumerates instructor commands (§3.3): scenario control and
// the dashboard trouble-shooting fault injection.
type InstructorOp uint32

// Instructor operations. Values start at 1; 0 is invalid.
const (
	OpStartScenario InstructorOp = iota + 1
	OpResetScenario
	OpInjectFault // force an instrument to a value (click on the mirror)
	OpClearFault
)

// Attribute handles of ClassInstructorCmd.
const (
	ICAttrOp         wire.AttrID = 1
	ICAttrInstrument wire.AttrID = 2 // dashboard instrument name
	ICAttrValue      wire.AttrID = 3 // injected value
)

// InstructorCmd is one instructor action sent to the dashboard or scenario
// modules.
type InstructorCmd struct {
	Op         InstructorOp
	Instrument string
	Value      float64
}

// Encode packs the struct into an attribute set.
func (c InstructorCmd) Encode() wire.AttrSet {
	a := wire.NewAttrSet(3)
	a.PutUint32(ICAttrOp, uint32(c.Op))
	a.PutString(ICAttrInstrument, c.Instrument)
	a.PutFloat64(ICAttrValue, c.Value)
	return a
}

// DecodeInstructorCmd unpacks an attribute set produced by Encode.
func DecodeInstructorCmd(a wire.AttrSet) (InstructorCmd, error) {
	var c InstructorCmd
	var ok bool
	var op uint32
	if op, ok = a.Uint32(ICAttrOp); !ok {
		return c, missing(ClassInstructorCmd, ICAttrOp)
	}
	c.Op = InstructorOp(op)
	if c.Instrument, ok = a.String(ICAttrInstrument); !ok {
		return c, missing(ClassInstructorCmd, ICAttrInstrument)
	}
	if c.Value, ok = a.Float64(ICAttrValue); !ok {
		return c, missing(ClassInstructorCmd, ICAttrValue)
	}
	return c, nil
}

// Alarm is the bitmask shown on the status window (Fig. 5): each bit is one
// alarm lamp signalling a misconduct of the operator.
type Alarm uint32

// Alarm bits.
const (
	AlarmSwingZone Alarm = 1 << iota // derrick boom overshot the safety zone
	AlarmLuffLimit                   // boom raised/lowered past its limit
	AlarmOverload                    // load moment over the load chart
	AlarmTipover                     // stability margin critically low
	AlarmCollision                   // hook/cargo collision occurred
	AlarmOverspeed                   // carrier driven too fast
)

// Has reports whether all bits of q are set in a.
func (a Alarm) Has(q Alarm) bool { return a&q == q }

// StatusReport is the digest behind the instructor's status window (Fig. 5):
// the four sub-window dials, the alarm lamps, and the live score. It is
// computed where it is shown (instructor.Monitor.Report), not published.
type StatusReport struct {
	SwingDeg float64
	LuffDeg  float64
	CableLen float64
	BoomLen  float64
	Alarms   Alarm
	Score    float64
}

// Attribute handles of ClassFrameReady and ClassFrameSwap.
const (
	FSAttrFrame  wire.AttrID = 1 // frame index
	FSAttrRender wire.AttrID = 2 // render time of the frame (seconds)
)

// FrameMark is the payload of the display synchronization barrier (§4):
// each display publishes FrameReady{n} when frame n has rendered; the sync
// server publishes FrameSwap{n} when all displays have reported.
type FrameMark struct {
	Frame      uint32
	RenderTime float64
}

// Encode packs the struct into an attribute set.
func (m FrameMark) Encode() wire.AttrSet {
	a := wire.NewAttrSet(2)
	a.PutUint32(FSAttrFrame, m.Frame)
	a.PutFloat64(FSAttrRender, m.RenderTime)
	return a
}

// DecodeFrameMark unpacks an attribute set produced by Encode.
func DecodeFrameMark(a wire.AttrSet) (FrameMark, error) {
	var m FrameMark
	var ok bool
	if m.Frame, ok = a.Uint32(FSAttrFrame); !ok {
		return m, missing(ClassFrameReady, FSAttrFrame)
	}
	if m.RenderTime, ok = a.Float64(FSAttrRender); !ok {
		return m, missing(ClassFrameReady, FSAttrRender)
	}
	return m, nil
}
