package sim

import (
	"errors"
	"fmt"

	"codsim/internal/audio"
	"codsim/internal/cb"
	"codsim/internal/crane"
	"codsim/internal/dashboard"
	"codsim/internal/dynamics"
	"codsim/internal/fom"
	"codsim/internal/instructor"
	"codsim/internal/lp"
	"codsim/internal/motion"
	"codsim/internal/scenario"
	"codsim/internal/trace"
	"codsim/internal/wire"
)

// runner registers a paced LP loop with the cluster group. A failing tick
// is on the cluster's record, where WaitExamContext is woken to find it,
// before the loop ends.
func (c *Cluster) runner(name string, hz float64, fn lp.TickFunc) error {
	tick := func(simTime, dt float64) error {
		err := fn(simTime, dt)
		if err != nil && !errors.Is(err, lp.Stop) {
			c.reportErr(fmt.Errorf("lp: %s: %w", name, err))
		}
		return err
	}
	r, err := lp.NewRunner(name, hz, tick, lp.Realtime(), lp.TimeScale(c.cfg.TimeScale))
	if err != nil {
		return fmt.Errorf("sim: runner %s: %w", name, err)
	}
	c.group.Add(r)
	return nil
}

// lpName derives the LP name for carrier i: the classic name for crane 0
// (so single-crane federations keep their exact wiring), an indexed one
// for the extra carriers.
func lpName(base string, i int) string {
	if i == 0 {
		return base
	}
	return fmt.Sprintf("%s-%d", base, i+1)
}

// drain decodes every reflection queued on sub and hands each value that
// decodes to use; one that does not is skipped. Each reflection is
// released once decoded: the fom decoders copy what they keep (strings
// included), so no value holds the reflection's bytes.
func drain[T any](sub *cb.Subscription, decode func(wire.AttrSet) (T, error), use func(T)) {
	for {
		r, ok := sub.Poll()
		if !ok {
			return
		}
		v, err := decode(r.Attrs)
		r.Release()
		if err == nil {
			use(v)
		}
	}
}

// drainCraneStates folds a queued CraneState subscription into the
// newest-state-per-crane view (states is indexed by CraneID; out-of-range
// IDs are dropped). A non-nil have marks every crane heard from.
func drainCraneStates(sub *cb.Subscription, states []fom.CraneState, have []bool) {
	drain(sub, fom.DecodeCraneState, func(st fom.CraneState) {
		if st.CraneID >= 0 && st.CraneID < int64(len(states)) {
			states[st.CraneID] = st
			if have != nil {
				have[st.CraneID] = true
			}
		}
	})
}

// drainScenStates folds a queued ScenarioState subscription the same way,
// decoding each state over the one it replaces, so a status text that has
// not changed is kept rather than copied again.
func drainScenStates(sub *cb.Subscription, states []fom.ScenarioState) {
	for {
		r, ok := sub.Poll()
		if !ok {
			return
		}
		id, _ := r.Attrs.Int64(fom.SSAttrCraneID) // absent means crane 0
		if id >= 0 && id < int64(len(states)) {
			s := states[id]
			if fom.DecodeScenarioStateInto(r.Attrs, &s) == nil {
				states[id] = s
			}
		}
		r.Release()
	}
}

// buildSimPC hosts the dynamics, scenario and audio LPs on one computer
// (§2.1: one or many LPs can run on a computer). A scenario declaring N
// cranes gets N dynamics LPs — one rig per carrier — over one shared
// cargo world, plus the single scenario interpreter stepping every
// carrier's cursor.
func (c *Cluster) buildSimPC(spec scenario.Spec) error {
	b, err := c.backbone(NodeSim)
	if err != nil {
		return err
	}

	// The rig the LPs below share: one model per carrier over one cargo
	// world, and the engine that judges them.
	rig, err := scenario.NewRig(spec, c.site)
	if err != nil {
		return fmt.Errorf("sim: %w", err)
	}

	// --- Dynamics LPs (60 Hz, one per carrier) ---
	for i, m := range rig.Models {
		if err := c.buildDynamicsLP(b, lpName("dynamics", i), m, int64(i)); err != nil {
			return err
		}
	}

	// --- Scenario LP (30 Hz) ---
	eng := rig.Engine
	if c.cfg.AutoStart {
		eng.Start()
	}
	scenPub, err := b.PublishObjectClass("scenario", fom.ClassScenarioState)
	if err != nil {
		return err
	}
	scenAudioPub, err := b.PublishObjectClass("scenario", fom.ClassAudioEvent)
	if err != nil {
		return err
	}
	scenStateSub, err := b.SubscribeObjectClass("scenario", fom.ClassCraneState, cb.WithQueue(128), cb.WithLatestValue())
	if err != nil {
		return err
	}
	cmdSub, err := b.SubscribeObjectClass("scenario", fom.ClassInstructorCmd, cb.WithReliable(32))
	if err != nil {
		return err
	}
	states := make([]fom.CraneState, len(rig.Models))
	have := make([]bool, len(rig.Models))
	haveAll := false
	var scenSet, bangSet wire.AttrSet // each publication's one set
	err = c.runner("scenario", 30, func(simTime, dt float64) error {
		drain(cmdSub, fom.DecodeInstructorCmd, func(cmd fom.InstructorCmd) {
			switch cmd.Op {
			case fom.OpStartScenario:
				eng.Start()
			case fom.OpResetScenario:
				eng.Reset()
			}
		})
		drainCraneStates(scenStateSub, states, have)
		if !haveAll {
			haveAll = true
			for _, h := range have {
				haveAll = haveAll && h
			}
		}
		// The engine only judges complete ticks: every carrier's
		// telemetry must have arrived at least once (matching the classic
		// rule of not stepping before the first CraneState).
		if haveAll {
			for _, ev := range eng.StepAll(states, dt) {
				if ev.Kind != scenario.EventBarCollision {
					continue
				}
				bang := fom.AudioEvent{Sound: fom.SoundCollision, Gain: 1, Position: states[ev.Crane].CargoPos}
				bang.EncodeInto(&bangSet)
				if err := scenAudioPub.Update(simTime, bangSet); err != nil {
					return err
				}
			}
		}
		s := eng.State()
		c.mu.Lock()
		newPhase := s.Phase != c.scenState.Phase
		c.scenState = s
		c.scenAlarms = eng.AlarmEvents()
		if newPhase {
			c.wakeLocked()
		}
		c.mu.Unlock()
		for i := range eng.CraneCount() {
			eng.StateFor(i).EncodeInto(&scenSet)
			if err := scenPub.Update(simTime, scenSet); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// --- Audio LP (~43 Hz: one 1024-sample block per tick) ---
	mixer, err := audio.NewMixer(c.bank)
	if err != nil {
		return fmt.Errorf("sim: audio: %w", err)
	}
	c.mixer = mixer
	// Audio events are distinct one-shots (clanks, alarms): conflation
	// would merge them, so the queue keeps the legacy drop-oldest
	// contract explicitly — a saturated mixer sheds the stalest event.
	audioSub, err := b.SubscribeObjectClass("audio", fom.ClassAudioEvent, cb.WithQueue(64), cb.WithDropOldest())
	if err != nil {
		return err
	}
	audioStateSub, err := b.SubscribeObjectClass("audio", fom.ClassCraneState, cb.WithQueue(128), cb.WithLatestValue())
	if err != nil {
		return err
	}
	if c.cfg.CaptureAudioSec > 0 {
		c.pcmRing = make([]float64, int(c.cfg.CaptureAudioSec*audio.SampleRate))
	}
	listener := make([]fom.CraneState, len(rig.Models))
	pcmBlock := make([]float64, 1024)
	err = c.runner("audio", float64(audio.SampleRate)/1024, func(_, _ float64) error {
		drain(audioSub, fom.DecodeAudioEvent, mixer.Handle)
		// The listener sits in crane 0's cab.
		drainCraneStates(audioStateSub, listener, nil)
		mixer.SetListener(listener[0].Position)
		mixer.Render(pcmBlock)
		if c.pcmRing != nil {
			c.capturePCM(pcmBlock)
		}
		return nil
	})
	return err
}

// buildDynamicsLP wires one carrier's physics loop: operator input in,
// authoritative CraneState / MotionCue / AudioEvent out.
func (c *Cluster) buildDynamicsLP(b *cb.Backbone, lp string, model *dynamics.Model, craneID int64) error {
	statePub, err := b.PublishObjectClass(lp, fom.ClassCraneState)
	if err != nil {
		return err
	}
	cuePub, err := b.PublishObjectClass(lp, fom.ClassMotionCue)
	if err != nil {
		return err
	}
	audioPub, err := b.PublishObjectClass(lp, fom.ClassAudioEvent)
	if err != nil {
		return err
	}
	controlSub, err := b.SubscribeObjectClass(lp, fom.ClassControlInput, cb.WithQueue(64), cb.WithLatestValue())
	if err != nil {
		return err
	}
	var lastIn fom.ControlInput
	var frame uint32
	var stateSet, cueSet, audioSet wire.AttrSet // each publication's one set
	return c.runner(lp, 60, func(simTime, dt float64) error {
		drain(controlSub, fom.DecodeControlInput, func(in fom.ControlInput) {
			if in.CraneID == craneID {
				lastIn = in
			}
		})
		events := model.Step(lastIn, dt)
		frame++
		model.State().EncodeInto(&stateSet)
		if err := statePub.Update(simTime, stateSet); err != nil {
			return err
		}
		model.MotionCue(frame).EncodeInto(&cueSet)
		if err := cuePub.Update(simTime, cueSet); err != nil {
			return err
		}
		for _, ev := range events {
			var ae fom.AudioEvent
			switch ev {
			case dynamics.EventEngineStarted:
				ae = fom.AudioEvent{Sound: fom.SoundEngineStart, Gain: 0.9}
			case dynamics.EventEngineStopped:
				ae = fom.AudioEvent{Sound: fom.SoundEngineLoop, Stop: true}
			case dynamics.EventCargoLatched, dynamics.EventCargoReleased:
				ae = fom.AudioEvent{Sound: fom.SoundHoistMotor, Gain: 0.7}
			default:
				continue
			}
			ae.EncodeInto(&audioSet)
			if err := audioPub.Update(simTime, audioSet); err != nil {
				return err
			}
			if ev == dynamics.EventEngineStarted {
				loop := fom.AudioEvent{Sound: fom.SoundEngineLoop, Gain: 0.7, Loop: true}
				loop.EncodeInto(&audioSet)
				if err := audioPub.Update(simTime, audioSet); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// buildDashboard hosts one pilot LP per carrier: crane 0's is the
// dashboard LP behind the cab mockup's instrument panel, each extra
// carrier's a lean autopilot LP.
func (c *Cluster) buildDashboard(spec scenario.Spec) error {
	b, err := c.backbone(NodeDashboard)
	if err != nil {
		return err
	}
	c.panel = dashboard.NewPanel()
	for i := 0; i < c.craneCount; i++ {
		var panel *dashboard.Panel
		if i == 0 {
			panel = c.panel
		}
		if err := c.buildPilotLP(b, i, spec, panel); err != nil {
			return err
		}
	}
	return nil
}

// buildPilotLP wires the operator of one carrier: CraneState and
// ScenarioState in, the autopilot's shaped ControlInput out. A non-nil
// panel makes it the cab's dashboard LP, which also takes the
// instructor's panel commands and moves the panel's instruments.
func (c *Cluster) buildPilotLP(b *cb.Backbone, craneIdx int, spec scenario.Spec, panel *dashboard.Panel) error {
	lp := lpName("dashboard", craneIdx)
	ctrlPub, err := b.PublishObjectClass(lp, fom.ClassControlInput)
	if err != nil {
		return err
	}
	stateSub, err := b.SubscribeObjectClass(lp, fom.ClassCraneState, cb.WithQueue(128), cb.WithLatestValue())
	if err != nil {
		return err
	}
	scenSub, err := b.SubscribeObjectClass(lp, fom.ClassScenarioState, cb.WithQueue(128), cb.WithLatestValue())
	if err != nil {
		return err
	}
	var cmdSub *cb.Subscription
	if panel != nil {
		cmdSub, err = b.SubscribeObjectClass(lp, fom.ClassInstructorCmd, cb.WithReliable(32))
		if err != nil {
			return err
		}
	}
	shaping := dashboard.DefaultShaping()
	var ap *trace.Autopilot
	if c.cfg.Autopilot {
		ap = trace.ForCrane(spec, craneIdx)
		ap.SetSkill(c.cfg.Skill)
	}
	states := make([]fom.CraneState, c.craneCount)
	scens := make([]fom.ScenarioState, c.craneCount)
	var ctrlSet wire.AttrSet // the publication's one set
	return c.runner(lp, 50, func(simTime, dt float64) error {
		if panel != nil {
			drain(cmdSub, fom.DecodeInstructorCmd, func(cmd fom.InstructorCmd) {
				_ = panel.Apply(cmd) // unknown instruments are instructor typos
			})
		}
		drainCraneStates(stateSub, states, nil)
		drainScenStates(scenSub, scens)
		if panel != nil {
			panel.UpdateFromState(states[craneIdx], dt)
		}
		var in fom.ControlInput
		if ap != nil {
			in = ap.Control(states[craneIdx], scens[craneIdx], dt)
		}
		in = shaping.Shape(in)
		in.CraneID = int64(craneIdx)
		in.EncodeInto(&ctrlSet)
		return ctrlPub.Update(simTime, ctrlSet)
	})
}

// buildMotion hosts one motion-platform controller LP per carrier (the
// paper's rack has one cab; extra carriers model remote-cab platforms).
func (c *Cluster) buildMotion() error {
	b, err := c.backbone(NodeMotion)
	if err != nil {
		return err
	}
	for i := 0; i < c.craneCount; i++ {
		lp := lpName("motion", i)
		// Seed 1 fixes the engine-vibration jitter, the same in every run.
		ctrl, err := motion.NewController(motion.DefaultGeometry(), motion.DefaultWashout(), 16, 1)
		if err != nil {
			return fmt.Errorf("sim: motion: %w", err)
		}
		cueSub, err := b.SubscribeObjectClass(lp, fom.ClassMotionCue, cb.WithQueue(128), cb.WithLatestValue())
		if err != nil {
			return err
		}
		craneID := int64(i)
		var lastCue fom.MotionCue
		haveCue := false
		err = c.runner(lp, 120, func(_, dt float64) error {
			drain(cueSub, fom.DecodeMotionCue, func(cue fom.MotionCue) {
				if cue.CraneID == craneID {
					lastCue = cue
					haveCue = true
				}
			})
			if haveCue {
				ctrl.Cue(lastCue, dt)
				haveCue = false
			}
			if st := ctrl.Step(dt); st.Saturated {
				c.motionSat.Inc()
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// buildInstructor hosts the instructor monitor LP, observing every
// carrier (alarm edges per crane) while mirroring crane 0's cab.
func (c *Cluster) buildInstructor() error {
	b, err := c.backbone(NodeInstructor)
	if err != nil {
		return err
	}
	c.monitor = instructor.NewMonitor(crane.DefaultSpec())
	stateSub, err := b.SubscribeObjectClass("instructor", fom.ClassCraneState, cb.WithQueue(128), cb.WithLatestValue())
	if err != nil {
		return err
	}
	scenSub, err := b.SubscribeObjectClass("instructor", fom.ClassScenarioState, cb.WithQueue(128), cb.WithLatestValue())
	if err != nil {
		return err
	}
	c.cmdPub, err = b.PublishObjectClass("instructor", fom.ClassInstructorCmd)
	if err != nil {
		return err
	}
	states := make([]fom.CraneState, c.craneCount)
	have := make([]bool, c.craneCount)
	scens := make([]fom.ScenarioState, c.craneCount)
	return c.runner("instructor", 10, func(_, dt float64) error {
		drainCraneStates(stateSub, states, have)
		for i := range states {
			if have[i] {
				c.monitor.ObserveCrane(states[i], dt)
			}
		}
		drainScenStates(scenSub, scens)
		c.monitor.ObserveScenario(scens[0]) // the status window shows crane 0's
		return nil
	})
}
