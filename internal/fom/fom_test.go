package fom

import (
	"errors"
	"testing"

	"codsim/internal/mathx"
	"codsim/internal/wire"
)

func TestControlInputRoundTrip(t *testing.T) {
	in := ControlInput{
		Steering:  -0.5,
		Throttle:  0.8,
		Brake:     0.1,
		BoomJoyX:  0.25,
		BoomJoyY:  -0.75,
		HoistJoyX: 1,
		HoistJoyY: -1,
		Ignition:  true,
		Gear:      2,
		HookLatch: true,
	}
	got, err := DecodeControlInput(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != in {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, in)
	}
}

func TestCraneStateRoundTrip(t *testing.T) {
	in := CraneState{
		Position:  mathx.V3(10, 0.5, -20),
		Heading:   1.1,
		Pitch:     0.05,
		Roll:      -0.02,
		Speed:     3.6,
		BoomSwing: 0.7,
		BoomLuff:  0.9,
		BoomLen:   14.5,
		CableLen:  6.25,
		HookPos:   mathx.V3(12, 8, -21),
		HookVel:   mathx.V3(0.1, -0.2, 0.3),
		CargoMass: 1500,
		CargoHeld: true,
		EngineRPM: 1800,
		EngineOn:  true,
		Stability: 0.85,
		CargoPos:  mathx.V3(12, 6, -21),
	}
	got, err := DecodeCraneState(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != in {
		t.Errorf("round trip:\n got %+v\nwant %+v", got, in)
	}
}

func TestMotionCueRoundTrip(t *testing.T) {
	in := MotionCue{
		SpecificForce: mathx.V3(0.2, -9.81, 1.0),
		AngularRate:   mathx.V3(0.01, 0.02, -0.03),
		Vibration:     0.35,
		Frame:         991,
	}
	got, err := DecodeMotionCue(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != in {
		t.Errorf("round trip mismatch: %+v vs %+v", got, in)
	}
}

func TestAudioEventRoundTrip(t *testing.T) {
	in := AudioEvent{
		Sound:    SoundCollision,
		Gain:     0.9,
		Position: mathx.V3(1, 2, 3),
		Loop:     false,
		Stop:     false,
	}
	got, err := DecodeAudioEvent(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != in {
		t.Errorf("round trip mismatch: %+v vs %+v", got, in)
	}
}

func TestScenarioStateRoundTrip(t *testing.T) {
	in := ScenarioState{
		Phase:      PhaseTraverse,
		Score:      87.5,
		Elapsed:    123.4,
		Collisions: 2,
		Waypoint:   5,
		Message:    "carry the cargo along the bars",
	}
	got, err := DecodeScenarioState(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != in {
		t.Errorf("round trip mismatch: %+v vs %+v", got, in)
	}
}

func TestInstructorCmdRoundTrip(t *testing.T) {
	in := InstructorCmd{Op: OpInjectFault, Instrument: "fuel-gauge", Value: 0}
	got, err := DecodeInstructorCmd(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != in {
		t.Errorf("round trip mismatch: %+v vs %+v", got, in)
	}
}

func TestFrameMarkRoundTrip(t *testing.T) {
	in := FrameMark{Frame: 12345, RenderTime: 0.0625}
	got, err := DecodeFrameMark(in.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got != in {
		t.Errorf("round trip mismatch: %+v vs %+v", got, in)
	}
}

func TestDecodeMissingAttr(t *testing.T) {
	// Removing any required attribute from a full set must produce
	// ErrMissingAttr. CargoID and CraneID were added after the first FOM
	// revision and decode leniently (absent → -1 and crane 0) so older
	// recordings still load.
	full := CraneState{}.Encode()
	without := func(gone wire.AttrID) wire.AttrSet {
		var a wire.AttrSet
		for id, v := range full.All() {
			if id != gone {
				a.PutBytes(id, v)
			}
		}
		return a
	}
	for id := range full.All() {
		if id == CSAttrCargoID || id == CSAttrCraneID {
			continue
		}
		if _, err := DecodeCraneState(without(id)); !errors.Is(err, ErrMissingAttr) {
			t.Errorf("attr %d removed: err = %v, want ErrMissingAttr", id, err)
		}
	}
	if st, err := DecodeCraneState(without(CSAttrCargoID)); err != nil || st.CargoID != -1 {
		t.Errorf("CargoID absent: st.CargoID=%d err=%v, want -1,<nil>", st.CargoID, err)
	}
	if st, err := DecodeCraneState(without(CSAttrCraneID)); err != nil || st.CraneID != 0 {
		t.Errorf("CraneID absent: st.CraneID=%d err=%v, want 0,<nil>", st.CraneID, err)
	}
	if _, err := DecodeControlInput(wire.AttrSet{}); !errors.Is(err, ErrMissingAttr) {
		t.Errorf("empty set: %v", err)
	}
	if _, err := DecodeMotionCue(wire.AttrSet{}); !errors.Is(err, ErrMissingAttr) {
		t.Errorf("empty set: %v", err)
	}
	if _, err := DecodeAudioEvent(wire.AttrSet{}); !errors.Is(err, ErrMissingAttr) {
		t.Errorf("empty set: %v", err)
	}
	if _, err := DecodeScenarioState(wire.AttrSet{}); !errors.Is(err, ErrMissingAttr) {
		t.Errorf("empty set: %v", err)
	}
	if _, err := DecodeInstructorCmd(wire.AttrSet{}); !errors.Is(err, ErrMissingAttr) {
		t.Errorf("empty set: %v", err)
	}
	if _, err := DecodeFrameMark(wire.AttrSet{}); !errors.Is(err, ErrMissingAttr) {
		t.Errorf("empty set: %v", err)
	}
}

func TestPhaseString(t *testing.T) {
	if PhaseDriving.String() != "driving" {
		t.Errorf("PhaseDriving = %q", PhaseDriving.String())
	}
	if Phase(99).String() != "unknown" {
		t.Errorf("unknown phase = %q", Phase(99).String())
	}
}

func TestAlarmHas(t *testing.T) {
	a := AlarmSwingZone | AlarmTipover
	if !a.Has(AlarmSwingZone) || !a.Has(AlarmTipover) {
		t.Error("Has missed set bits")
	}
	if a.Has(AlarmOverload) {
		t.Error("Has reported unset bit")
	}
	if !a.Has(AlarmSwingZone | AlarmTipover) {
		t.Error("Has failed on multi-bit query")
	}
	if a.Has(AlarmSwingZone | AlarmOverload) {
		t.Error("Has passed on partially-set multi-bit query")
	}
}

func TestEncodedSetsSurviveWire(t *testing.T) {
	// FOM attribute sets must survive a full wire round trip.
	state := CraneState{Position: mathx.V3(1, 2, 3), Stability: 1}
	f := wire.Frame{Kind: wire.KindUpdateAttrs, Class: ClassCraneState, Attrs: state.Encode()}
	b, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := wire.Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeCraneState(got.Attrs)
	if err != nil {
		t.Fatal(err)
	}
	if dec != state {
		t.Errorf("wire round trip mismatch: %+v vs %+v", dec, state)
	}
}
