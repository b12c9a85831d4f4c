package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"codsim/internal/collision"
	"codsim/internal/crane"
	"codsim/internal/dist"
	"codsim/internal/dynamics"
	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/render"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/terrain"
	"codsim/internal/trace"
)

// probeRender times one display's frame alone — SceneBuilder.Frame plus
// Renderer.Render at the federation's size on display 1's camera of the
// three-display surround view — with no barrier and no backbone.
func probeRender(_ context.Context, cfg runConfig, l map[string]float64) error {
	w, h, polys := 640, 480, 3235
	if cfg.quick {
		w, h, polys = 96, 72, 400
	}
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		return err
	}
	builder, err := render.NewSceneBuilder(ter, nil, polys)
	if err != nil {
		return err
	}
	rend, err := render.NewRenderer(w, h)
	if err != nil {
		return err
	}
	st := probeState
	cams := render.SurroundCameras(st.Position.Add(mathx.V3(0, 3.2, 0)), st.Heading, 3,
		mathx.Rad(40), float64(w)/float64(h))
	frames := probeCount(cfg, 120)
	ms := make([]float64, frames)
	start := time.Now()
	for i := range ms {
		t0 := time.Now()
		st.BoomSwing = mathx.Rad(float64(i%90) - 45)
		rend.Render(builder.Frame(st), cams[0])
		ms[i] = time.Since(t0).Seconds() * 1e3
	}
	l["render.frame_ms"] = median(ms)
	l["render.freerun_fps"] = float64(frames) / time.Since(start).Seconds()
	return nil
}

// probeSpecs are the specs the kernel and JSON probes work on: the shipped
// library plus the first statically sound candidates of the run's seed.
func probeSpecs(cfg runConfig) ([]scenario.Spec, error) {
	specs := scenario.Library()
	params := gen.DefaultParams()
	want := len(specs) + probeCount(cfg, 8)
	for k := int64(0); len(specs) < want && k < 256; k++ {
		spec, err := gen.Generate(gen.SubSeed(cfg.seed, k), params)
		if err != nil {
			return nil, err
		}
		if gen.StaticCheck(spec) == nil {
			specs = append(specs, spec)
		}
	}
	return specs, nil
}

// probeGen times candidate sampling and the static reachability check.
func probeGen(_ context.Context, cfg runConfig, l map[string]float64) error {
	params := gen.DefaultParams()
	var (
		k    int64
		spec scenario.Spec
		err  error
	)
	l["gen.generate_us"] = timeOp(func() {
		k++
		if s, e := gen.Generate(gen.SubSeed(cfg.seed, k), params); e != nil {
			err = e
		} else {
			spec = s
		}
	}) / 1e3
	l["gen.static_check_us"] = timeOp(func() { _ = gen.StaticCheck(spec) }) / 1e3
	return err
}

// headlessBudget is sim.RunBatch's sim-time budget for a headless run.
func headlessBudget(spec scenario.Spec) float64 {
	return max(3*spec.Course.ParTime, 900)
}

// kernelParts are the accumulated timers of one replica flight.
type kernelParts struct {
	setup, control, dynamics, engine time.Duration
	steps, intervals                 int64
}

// replicaFlight re-flies spec through the loop trace.Runner fuses —
// Autopilot.Control, Model.Step/State, Engine.StepAll — with a timer on
// each part.
func replicaFlight(spec scenario.Spec) (trace.RunResult, kernelParts, error) {
	var p kernelParts
	res := trace.RunResult{Scenario: spec.Name}
	began := time.Now()
	ter := terrain.DefaultMap()
	decls := spec.CraneDecls()
	world := dynamics.NewWorld()
	models := make([]*dynamics.Model, len(decls))
	pilots := make([]*trace.Autopilot, len(decls))
	states := make([]fom.CraneState, len(decls))
	for c, d := range decls {
		m, err := dynamics.NewCrane(dynamics.DefaultConfig(), ter, world, d.Start, d.StartYaw, c)
		if err != nil {
			return res, p, err
		}
		models[c], pilots[c] = m, trace.ForCrane(spec, c)
	}
	spec.Install(ter, models...)
	eng, err := scenario.NewEngineSpec(spec, crane.DefaultSpec())
	if err != nil {
		return res, p, err
	}
	eng.SetLiveStatus(false)
	eng.Start()
	for c, m := range models {
		states[c] = m.State()
	}
	p.setup = time.Since(began)

	const dt = 1.0 / 60
	maxSim := headlessBudget(spec)
	for res.SimTime = 0; res.SimTime < maxSim; res.SimTime += dt {
		if ph := eng.Phase(); ph == fom.PhaseComplete || ph == fom.PhaseFailed {
			break
		}
		p.steps++
		t0 := time.Now()
		for c, m := range models {
			in := pilots[c].Control(states[c], eng.StateFor(c), dt)
			in.CraneID = int64(c)
			t1 := time.Now()
			m.Step(in, dt)
			states[c] = m.State()
			t2 := time.Now()
			p.control += t1.Sub(t0)
			p.dynamics += t2.Sub(t1)
			p.intervals += 2
			t0 = t2
		}
		eng.StepAll(states, dt)
		p.engine += time.Since(t0)
		p.intervals++
	}
	res.State = eng.State()
	res.Alarms = eng.AlarmEvents()
	res.Passed = res.State.Phase == fom.PhaseComplete
	return res, p, nil
}

// probeKernel decomposes the headless step: every probe spec is flown
// untimed by trace.Runner.RunSkill (the whole) and again by the replica
// (the parts). The replica must reproduce RunSkill's score, phase and
// sim-time exactly or the run fails. It also times one collision pass
// over the classic course's obstacle field and one terrain height lookup.
func probeKernel(ctx context.Context, cfg runConfig, l map[string]float64) error {
	specs, err := probeSpecs(cfg)
	if err != nil {
		return err
	}
	var (
		whole    time.Duration
		simSec   float64
		sum      kernelParts
		runner   trace.Runner
		setupsUS []float64
	)
	for _, spec := range specs {
		began := time.Now()
		want, err := runner.RunSkill(ctx, spec, headlessBudget(spec), trace.SkillProfile{})
		whole += time.Since(began)
		if err != nil && ctx.Err() != nil {
			return err
		}
		got, p, err := replicaFlight(spec)
		if err != nil {
			return err
		}
		if got.State.Score != want.State.Score || got.State.Phase != want.State.Phase || got.SimTime != want.SimTime {
			return fmt.Errorf("replica of %s ended %v score %v at %v sim-s; RunSkill ended %v score %v at %v sim-s",
				spec.Name, got.State.Phase, got.State.Score, got.SimTime, want.State.Phase, want.State.Score, want.SimTime)
		}
		simSec += want.SimTime
		setupsUS = append(setupsUS, p.setup.Seconds()*1e6)
		sum.setup += p.setup
		sum.control += p.control
		sum.dynamics += p.dynamics
		sum.engine += p.engine
		sum.steps += p.steps
		sum.intervals += p.intervals
	}
	// Each timed interval contains one clock read; take it back out. The
	// pilot and the model run once per crane per step, the engine once.
	clock := clockNS()
	steps := float64(sum.steps)
	perInterval := func(d time.Duration, n float64) float64 { return float64(d.Nanoseconds())/n - clock }
	craneSteps := float64(sum.intervals-sum.steps) / 2
	control := perInterval(sum.control, craneSteps) * craneSteps / steps
	dyn := perInterval(sum.dynamics, craneSteps) * craneSteps / steps
	engine := perInterval(sum.engine, steps)
	step := float64((whole - sum.setup).Nanoseconds()) / steps
	l["trace.control_ns"] = control
	l["dynamics.step_ns"] = dyn
	l["scenario.step_ns"] = engine
	l["trace.step_ns"] = step
	l["trace.parts_ratio"] = (control + dyn + engine) / step
	l["trace.setup_us"] = median(setupsUS)
	l["trace.sim_s_per_s"] = simSec / whole.Seconds()

	course := scenario.Classic().Course
	world := &collision.World{}
	for _, b := range course.Bars {
		obj := collision.NewObject(b.Name, collision.BoxMesh(b.Half.X, b.Half.Y, b.Half.Z))
		obj.SetPose(b.Pos, mathx.QuatAxisAngle(mathx.V3(0, 1, 0), -b.Yaw))
		world.Add(obj)
	}
	hook := collision.NewObject("hook", collision.BoxMesh(0.3, 0.35, 0.3))
	cargo := collision.NewObject("cargo", collision.BoxMesh(0.9, 0.6, 0.9))
	world.Add(hook)
	world.Add(cargo)
	i := 0
	l["collision.find_us"] = timeOp(func() {
		// Carry the pair along the trajectory so both near and far passes count.
		at := course.Waypoints[i%len(course.Waypoints)]
		i++
		hook.SetPose(at.Add(mathx.V3(0, 2, 0)), mathx.QuatIdentity())
		cargo.SetPose(at, mathx.QuatIdentity())
		world.FindContacts()
	}) / 1e3

	ter := terrain.DefaultMap()
	sx, sz := ter.Size()
	var x, sink float64
	l["terrain.height_ns"] = timeOp(func() {
		x += 0.37
		if x >= sx {
			x = 0
		}
		sink += ter.HeightAt(x, sz-x*sz/sx)
	})
	_ = sink
	return nil
}

// probeJSON times the payload codecs of the dispatch protocol: a job's
// spec and a finished run's Record, both as the JSON dist ships.
func probeJSON(_ context.Context, cfg runConfig, l map[string]float64) error {
	specs, err := probeSpecs(cfg)
	if err != nil {
		return err
	}
	datas := make([][]byte, len(specs))
	i := 0
	marshal := timeOp(func() {
		data, e := scenario.MarshalSpec(specs[i%len(specs)])
		if e != nil {
			err = e
		}
		datas[i%len(specs)] = data
		i++
	})
	if err != nil {
		return err
	}
	for i, spec := range specs { // timeOp may have stopped short of one pass
		if datas[i], err = scenario.MarshalSpec(spec); err != nil {
			return err
		}
	}
	i = 0
	unmarshal := timeOp(func() {
		if _, e := scenario.UnmarshalSpec(datas[i%len(datas)]); e != nil {
			err = e
		}
		i++
	})
	l["scenario.marshal_spec_us"] = marshal / 1e3
	l["scenario.unmarshal_spec_us"] = unmarshal / 1e3

	rec := dist.Record{
		Job: 1234, Attempt: 1, Scenario: "gen-linear", Title: "generated linear carry", Seed: 5678,
		Worker: "w1", Passed: true, Score: 87.25, Phase: "complete", SimSec: 104.5, WallSec: 0.0081,
		Span: "5f3a9c21-0042", QueueMS: 312.4, DispatchMS: 0.8,
	}
	l["dist.record_json_us"] = timeOp(func() {
		data, e := json.Marshal(rec)
		if e == nil {
			e = json.Unmarshal(data, &rec)
		}
		if e != nil {
			err = e
		}
	}) / 1e3
	return err
}
