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
	"codsim/internal/terrain"
	"codsim/internal/trace"
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

// drainCraneStates folds a queued CraneState subscription into the
// newest-state-per-crane view (states is indexed by CraneID; out-of-range
// IDs are dropped). A non-nil have marks every crane heard from. Each
// reflection is released once decoded: the decoded state holds none of
// its bytes.
func drainCraneStates(sub *cb.Subscription, states []fom.CraneState, have []bool) {
	for {
		r, ok := sub.Poll()
		if !ok {
			return
		}
		st, err := fom.DecodeCraneState(r.Attrs)
		r.Release()
		if err == nil {
			if st.CraneID >= 0 && st.CraneID < int64(len(states)) {
				states[st.CraneID] = st
				if have != nil {
					have[st.CraneID] = true
				}
			}
		}
	}
}

// drainScenStates folds a queued ScenarioState subscription the same way.
func drainScenStates(sub *cb.Subscription, states []fom.ScenarioState) {
	for {
		r, ok := sub.Poll()
		if !ok {
			return
		}
		s, err := fom.DecodeScenarioState(r.Attrs)
		r.Release()
		if err == nil {
			if s.CraneID >= 0 && s.CraneID < int64(len(states)) {
				states[s.CraneID] = s
			}
		}
	}
}

// buildSimPC hosts the dynamics, scenario and audio LPs on one computer
// (§2.1: one or many LPs can run on a computer). A scenario declaring N
// cranes gets N dynamics LPs — one rig per carrier — over one shared
// cargo world, plus the single scenario interpreter stepping every
// carrier's cursor.
func (c *Cluster) buildSimPC(ter *terrain.Map, spec scenario.Spec) error {
	b, err := c.backbone(NodeSim)
	if err != nil {
		return err
	}

	// The rig the LPs below share: one model per carrier over one cargo
	// world, and the engine that judges them.
	rig, err := scenario.NewRig(spec, ter)
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
	err = c.runner("scenario", 30, func(simTime, dt float64) error {
		for {
			r, ok := cmdSub.Poll()
			if !ok {
				break
			}
			cmd, err := fom.DecodeInstructorCmd(r.Attrs)
			if err != nil {
				continue
			}
			switch cmd.Op {
			case fom.OpStartScenario:
				eng.Start()
			case fom.OpResetScenario:
				eng.Reset()
			}
		}
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
				if err := scenAudioPub.Update(simTime, bang.Encode()); err != nil {
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
		for _, ps := range eng.States() {
			if err := scenPub.Update(simTime, ps.Encode()); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// --- Audio LP (~43 Hz: one 1024-sample block per tick) ---
	mixer, err := audio.NewMixer(audio.SynthesizeAssets(c.cfg.Seed))
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
		for {
			r, ok := audioSub.Poll()
			if !ok {
				break
			}
			if ev, err := fom.DecodeAudioEvent(r.Attrs); err == nil {
				mixer.Handle(ev)
			}
		}
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
	return c.runner(lp, 60, func(simTime, dt float64) error {
		for {
			r, ok := controlSub.Poll()
			if !ok {
				break
			}
			in, err := fom.DecodeControlInput(r.Attrs)
			r.Release()
			if err == nil && in.CraneID == craneID {
				lastIn = in
			}
		}
		events := model.Step(lastIn, dt)
		st := model.State()
		frame++
		if err := statePub.Update(simTime, st.Encode()); err != nil {
			return err
		}
		if err := cuePub.Update(simTime, model.MotionCue(frame).Encode()); err != nil {
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
			if err := audioPub.Update(simTime, ae.Encode()); err != nil {
				return err
			}
			if ev == dynamics.EventEngineStarted {
				loop := fom.AudioEvent{Sound: fom.SoundEngineLoop, Gain: 0.7, Loop: true}
				if err := audioPub.Update(simTime, loop.Encode()); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// buildDashboard hosts the dashboard LP for crane 0 — operator input →
// ControlInput, with the mockup instrument panel — plus one lean
// autopilot LP per extra declared crane.
func (c *Cluster) buildDashboard(spec scenario.Spec) error {
	b, err := c.backbone(NodeDashboard)
	if err != nil {
		return err
	}
	panel := dashboard.NewPanel()
	c.panel = panel
	shaping := dashboard.DefaultShaping()
	ctrlPub, err := b.PublishObjectClass("dashboard", fom.ClassControlInput)
	if err != nil {
		return err
	}
	stateSub, err := b.SubscribeObjectClass("dashboard", fom.ClassCraneState, cb.WithQueue(128), cb.WithLatestValue())
	if err != nil {
		return err
	}
	scenSub, err := b.SubscribeObjectClass("dashboard", fom.ClassScenarioState, cb.WithQueue(128), cb.WithLatestValue())
	if err != nil {
		return err
	}
	cmdSub, err := b.SubscribeObjectClass("dashboard", fom.ClassInstructorCmd, cb.WithReliable(32))
	if err != nil {
		return err
	}
	var ap *trace.Autopilot
	if c.cfg.Autopilot {
		ap = trace.ForCrane(spec, 0)
		ap.SetSkill(c.cfg.Skill)
	}
	states := make([]fom.CraneState, c.craneCount)
	scens := make([]fom.ScenarioState, c.craneCount)
	err = c.runner("dashboard", 50, func(simTime, dt float64) error {
		for {
			r, ok := cmdSub.Poll()
			if !ok {
				break
			}
			if cmd, err := fom.DecodeInstructorCmd(r.Attrs); err == nil {
				_ = panel.Apply(cmd) // unknown instruments are instructor typos
			}
		}
		drainCraneStates(stateSub, states, nil)
		drainScenStates(scenSub, scens)
		panel.UpdateFromState(states[0], dt)
		var in fom.ControlInput
		if ap != nil {
			in = ap.Control(states[0], scens[0], dt)
		}
		return ctrlPub.Update(simTime, shaping.Shape(in).Encode())
	})
	if err != nil {
		return err
	}
	// Extra carriers: an autopilot each, no instrument panel — the cab
	// mockup is crane 0's.
	for i := 1; i < c.craneCount; i++ {
		if err := c.buildPilotLP(b, i, spec); err != nil {
			return err
		}
	}
	return nil
}

// buildPilotLP wires the synthetic operator of one extra carrier.
func (c *Cluster) buildPilotLP(b *cb.Backbone, craneIdx int, spec scenario.Spec) error {
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
	shaping := dashboard.DefaultShaping()
	var ap *trace.Autopilot
	if c.cfg.Autopilot {
		ap = trace.ForCrane(spec, craneIdx)
		ap.SetSkill(c.cfg.Skill)
	}
	states := make([]fom.CraneState, c.craneCount)
	scens := make([]fom.ScenarioState, c.craneCount)
	return c.runner(lp, 50, func(simTime, dt float64) error {
		drainCraneStates(stateSub, states, nil)
		drainScenStates(scenSub, scens)
		var in fom.ControlInput
		if ap != nil {
			in = ap.Control(states[craneIdx], scens[craneIdx], dt)
		}
		in = shaping.Shape(in)
		in.CraneID = int64(craneIdx)
		return ctrlPub.Update(simTime, in.Encode())
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
		ctrl, err := motion.NewController(motion.DefaultGeometry(), motion.DefaultWashout(), 16, c.cfg.Seed)
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
			for {
				r, ok := cueSub.Poll()
				if !ok {
					break
				}
				cue, err := fom.DecodeMotionCue(r.Attrs)
				r.Release()
				if err == nil && cue.CraneID == craneID {
					lastCue = cue
					haveCue = true
				}
			}
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
	reportPub, err := b.PublishObjectClass("instructor", fom.ClassStatusReport)
	if err != nil {
		return err
	}
	c.cmdPub, err = b.PublishObjectClass("instructor", fom.ClassInstructorCmd)
	if err != nil {
		return err
	}
	states := make([]fom.CraneState, c.craneCount)
	have := make([]bool, c.craneCount)
	return c.runner("instructor", 10, func(simTime, dt float64) error {
		drainCraneStates(stateSub, states, have)
		for i := range states {
			if have[i] {
				c.monitor.ObserveCrane(states[i], dt)
			}
		}
		for {
			r, ok := scenSub.Poll()
			if !ok {
				break
			}
			if s, err := fom.DecodeScenarioState(r.Attrs); err == nil {
				c.monitor.ObserveScenario(s)
			}
		}
		return reportPub.Update(simTime, c.monitor.Report(0).Encode())
	})
}
