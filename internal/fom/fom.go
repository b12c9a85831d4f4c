// Package fom defines the Federation Object Model of the mobile crane
// simulator: the object classes exchanged between the seven Logical
// Processes over the Communication Backbone, together with typed
// encode/decode helpers for their attribute sets.
//
// The paper adopts HLA's Publish/Subscribe Object Class services (§2.3);
// this package is the simulator's equivalent of the HLA FOM document: it
// fixes class names and attribute handles so independently developed LPs
// agree on the wire content.
//
// Classes and their producers/consumers (Fig. 3):
//
//	ControlInput   dashboard → dynamics
//	CraneState     dynamics  → visual displays, instructor, scenario, audio, dashboard
//	MotionCue      dynamics  → motion platform controller
//	AudioEvent     dynamics, scenario → audio
//	ScenarioState  scenario  → instructor, dashboard
//	InstructorCmd  instructor → dashboard, scenario
//	FrameReady     display n → synchronization server (§4)
//	FrameSwap      synchronization server → displays (§4)
//
// The instructor's status window (Fig. 5) is not a class: the instructor
// LP computes its StatusReport digest from the CraneState and
// ScenarioState it subscribes.
package fom

import (
	"errors"
	"fmt"

	"codsim/internal/wire"
)

// Object-class names.
const (
	ClassControlInput  = "ControlInput"
	ClassCraneState    = "CraneState"
	ClassMotionCue     = "MotionCue"
	ClassAudioEvent    = "AudioEvent"
	ClassScenarioState = "ScenarioState"
	ClassInstructorCmd = "InstructorCmd"
	ClassFrameReady    = "FrameReady"
	ClassFrameSwap     = "FrameSwap"
)

// ErrMissingAttr reports an attribute set that lacks a required attribute
// or carries it with the wrong width.
var ErrMissingAttr = errors.New("fom: missing or malformed attribute")

func missing(class string, id wire.AttrID) error {
	return fmt.Errorf("%w: %s attr %d", ErrMissingAttr, class, id)
}
