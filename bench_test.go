// Benchmarks regenerating the paper's quantitative artifacts, one family
// per paper figure (EXP-1..7; README's "Paper figures" table names the
// tests that assert each one's shape). Run:
//
//	go test -bench=. -benchmem
package codsim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"codsim/cod"
	"codsim/internal/cb"
	"codsim/internal/collision"
	"codsim/internal/crane"
	"codsim/internal/displaysync"
	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/motion"
	"codsim/internal/render"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/sim"
	"codsim/internal/terrain"
	"codsim/internal/trace"
	"codsim/internal/transport"
)

// --- EXP-1: surround-view frame rate (§4) -------------------------------

type benchRig struct {
	builder *render.SceneBuilder
	rend    *render.Renderer
	cam     render.Camera
	state   fom.CraneState
}

func newBenchRig(b *testing.B, polygons, camIdx, camCount int) *benchRig {
	b.Helper()
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		b.Fatal(err)
	}
	builder, err := render.NewSceneBuilder(ter, nil, polygons)
	if err != nil {
		b.Fatal(err)
	}
	rend, err := render.NewRenderer(640, 480)
	if err != nil {
		b.Fatal(err)
	}
	st := fom.CraneState{
		Position: mathx.V3(100, 0, 100),
		BoomLuff: mathx.Rad(45), BoomLen: 14, CableLen: 6,
		HookPos: mathx.V3(100, 6, 90), CargoPos: mathx.V3(100, 1, 90),
	}
	cams := render.SurroundCameras(st.Position.Add(mathx.V3(0, 3.2, 0)), 0,
		camCount, mathx.Rad(40), 4.0/3.0)
	return &benchRig{builder: builder, rend: rend, cam: cams[camIdx], state: st}
}

func (r *benchRig) frame(n uint32) {
	r.state.BoomSwing = mathx.Rad(float64(n%90) - 45)
	r.rend.Render(r.builder.Frame(r.state), r.cam)
}

// BenchmarkSurroundViewFreeRun is the unsynchronized single-display
// baseline: one op = one rendered frame of the paper-sized scene.
func BenchmarkSurroundViewFreeRun(b *testing.B) {
	for _, polys := range []int{800, 3235, 13000} {
		b.Run(fmt.Sprintf("polys-%d", polys), func(b *testing.B) {
			rig := newBenchRig(b, polys, 0, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rig.frame(uint32(i))
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "fps")
		})
	}
}

// BenchmarkSurroundViewSynced is the §4 measurement: one op = one frame
// rendered on all three displays and released through the synchronization
// server's barrier over the CB. The fps metric divided into the free-run
// metric is the synchronization overhead.
func BenchmarkSurroundViewSynced(b *testing.B) {
	for _, polys := range []int{800, 3235} {
		b.Run(fmt.Sprintf("polys-%d", polys), func(b *testing.B) {
			lan := transport.NewMemLAN()
			serverBB, err := cb.New(lan, "sync-server", cb.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer serverBB.Close()
			srv, err := displaysync.NewServer(serverBB, "sync", displaysync.ServerConfig{
				Expected: []string{"d-1", "d-2", "d-3"},
			})
			if err != nil {
				b.Fatal(err)
			}
			srv.Start()
			defer srv.Stop()

			type unit struct {
				client *displaysync.Display
				rig    *benchRig
			}
			units := make([]*unit, 3)
			for i := range units {
				bb, err := cb.New(lan, fmt.Sprintf("pc-%d", i+1), cb.Config{})
				if err != nil {
					b.Fatal(err)
				}
				defer bb.Close()
				client, err := displaysync.NewDisplay(bb, fmt.Sprintf("d-%d", i+1))
				if err != nil {
					b.Fatal(err)
				}
				units[i] = &unit{client: client, rig: newBenchRig(b, polys, i, 3)}
			}
			for _, u := range units {
				if !u.client.WaitServer(10 * time.Second) {
					b.Fatal("display never linked")
				}
			}
			b.ReportAllocs() // polys-3235 carries a ceiling in BENCH_baseline.json
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, u := range units {
				wg.Add(1)
				go func(u *unit) {
					defer wg.Done()
					if err := u.client.RunFrames(b.N, time.Minute, u.rig.frame); err != nil {
						b.Error(err)
					}
				}(u)
			}
			wg.Wait()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "fps")
		})
	}
}

// --- EXP-2: CB virtual-channel routing (§2.2) ---------------------------

// BenchmarkCBRoutingLocal measures the in-process fast path: one op = one
// UPDATE pushed and reflected on the same computer.
func BenchmarkCBRoutingLocal(b *testing.B) {
	ctx := context.Background()
	lan := transport.NewMemLAN()
	node, err := cb.New(lan, "solo", cb.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	pub, err := node.PublishObjectClass("p", "State")
	if err != nil {
		b.Fatal(err)
	}
	sub, err := node.SubscribeObjectClass("s", "State", cb.WithQueue(1024))
	if err != nil {
		b.Fatal(err)
	}
	attrs := fom.CraneState{Stability: 1}.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Update(float64(i), attrs); err != nil {
			b.Fatal(err)
		}
		if _, err := sub.NextContext(ctx); err != nil {
			b.Fatal("reflection lost")
		}
	}
}

// BenchmarkCBRoutingRemote measures a cross-node virtual channel: one op =
// one UPDATE serialized, routed over the (zero-latency in-memory) LAN, and
// reflected on the other computer.
func BenchmarkCBRoutingRemote(b *testing.B) {
	benchRemoteDelivery(b, true, cb.WithQueue(1024))
}

// BenchmarkCBRoutingUnreleased is the same channel under a consumer that
// never calls Release: each frame then costs the link the body it is read
// into and its ref table, two allocations sized to the frame, and the gate
// holds it to exactly that.
func BenchmarkCBRoutingUnreleased(b *testing.B) {
	benchRemoteDelivery(b, false, cb.WithQueue(1024))
}

// BenchmarkCBRoutingLatestValue is the conflating delivery path: one op =
// one UPDATE through a remote latest-value channel with a consuming
// subscriber — the 60 Hz state-channel configuration of the simulator.
func BenchmarkCBRoutingLatestValue(b *testing.B) {
	benchRemoteDelivery(b, true, cb.WithQueue(1024), cb.WithLatestValue())
}

// BenchmarkCBRoutingReliable is the credit-windowed delivery path: one op
// = one UPDATE through a remote reliable channel with a consuming
// subscriber, including the amortized credit-grant traffic flowing back.
func BenchmarkCBRoutingReliable(b *testing.B) {
	benchRemoteDelivery(b, true, cb.WithReliable(1024))
}

// benchRemoteDelivery measures one UPDATE over a cross-node virtual
// channel under the given subscription options, consuming as it goes;
// release says whether the consumer hands each reflection's storage back,
// as cod.Sub does after decoding.
func benchRemoteDelivery(b *testing.B, release bool, opts ...cb.SubscribeOption) {
	ctx := context.Background()
	lan := transport.NewMemLAN()
	pubNode, err := cb.New(lan, "pub-pc", cb.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer pubNode.Close()
	subNode, err := cb.New(lan, "sub-pc", cb.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer subNode.Close()
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		b.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State", opts...)
	if err != nil {
		b.Fatal(err)
	}
	if err := sub.WaitMatchedContext(ctx); err != nil {
		b.Fatal("channel never established")
	}
	if err := pub.WaitChannelsContext(ctx, 1); err != nil {
		b.Fatal("publisher never linked")
	}
	attrs := fom.CraneState{Stability: 1}.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The blocking form: in a ping-pong the publisher's read loop, which
		// takes in the credits, can be starved of the CPU until its view of
		// a reliable window falls a whole window behind.
		if err := pub.UpdateContext(ctx, float64(i), attrs); err != nil {
			b.Fatal(err)
		}
		r, err := sub.NextContext(ctx)
		if err != nil {
			b.Fatal("reflection lost")
		}
		if release {
			r.Release()
		}
	}
}

// BenchmarkCBThroughput is the sustained-throughput headline: a publisher
// streams b.N UPDATEs through a remote Reliable channel while a consumer
// goroutine drains concurrently, so the two ends pipeline instead of
// ping-ponging — the steady-state shape of the 60 Hz state fan-out. One
// op = one frame published, routed, and consumed. Reports frames/s and
// the per-core headline frames/s/core (README "Raw speed"). Run at
// -benchtime 1000x for a steady-state reading (check.sh/CI do).
func BenchmarkCBThroughput(b *testing.B) {
	ctx := context.Background()
	lan := transport.NewMemLAN()
	pubNode, err := cb.New(lan, "pub-pc", cb.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer pubNode.Close()
	subNode, err := cb.New(lan, "sub-pc", cb.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer subNode.Close()
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		b.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State", cb.WithReliable(1024))
	if err != nil {
		b.Fatal(err)
	}
	if err := sub.WaitMatchedContext(ctx); err != nil {
		b.Fatal("channel never established")
	}
	if err := pub.WaitChannelsContext(ctx, 1); err != nil {
		b.Fatal("publisher never linked")
	}
	attrs := fom.CraneState{Stability: 1}.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < b.N; i++ {
			r, err := sub.NextContext(ctx)
			if err != nil {
				b.Error("reflection lost")
				return
			}
			r.Release()
		}
	}()
	for i := 0; i < b.N; i++ {
		// UpdateContext blocks on the credit window when the publisher
		// runs ahead of the consumer — backpressure, not loss.
		if err := pub.UpdateContext(ctx, float64(i), attrs); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	fps := float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(fps, "frames/s")
	b.ReportMetric(fps/float64(runtime.GOMAXPROCS(0)), "frames/s/core")
}

// benchState is a CraneState-sized typed payload: 19 scalars.
type benchState struct {
	Seq                                  int64
	X, Y, Z, Heading, Pitch, Roll, Speed float64
	Swing, Luff, BoomLen, CableLen       float64
	HookX, HookY, HookZ, Mass, RPM       float64
	Held, EngineOn                       bool
}

// BenchmarkCodRemoteUpdate is the typed SDK path codbench's cb_stream
// runs: one op = one struct through cod.Pub.Update — codec, frame, MemLAN
// link, Reliable mailbox — and out of Sub.Next on the other node. Sub.Next
// releases each reflection after decoding it, so the steady state
// recycles every buffer on the way; the gate is 1 alloc/op.
func BenchmarkCodRemoteUpdate(b *testing.B) {
	ctx := context.Background()
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()))
	defer fed.Close()
	pubNode, err := fed.Node("pub-pc")
	if err != nil {
		b.Fatal(err)
	}
	subNode, err := fed.Node("sub-pc")
	if err != nil {
		b.Fatal(err)
	}
	pub, err := cod.Publish[benchState](pubNode, "p", "State")
	if err != nil {
		b.Fatal(err)
	}
	sub, err := cod.Subscribe[benchState](subNode, "s", "State", cod.Reliable(1024))
	if err != nil {
		b.Fatal(err)
	}
	if err := sub.WaitMatched(ctx); err != nil {
		b.Fatal("channel never established")
	}
	if err := pub.WaitChannels(ctx, 1); err != nil {
		b.Fatal("publisher never linked")
	}
	st := benchState{X: 100, Z: 100, Luff: 0.8, BoomLen: 14, Mass: 1800, EngineOn: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Seq = int64(i)
		if err := pub.UpdateContext(ctx, float64(i), st); err != nil {
			b.Fatal(err)
		}
		r, err := sub.Next(ctx)
		if err != nil {
			b.Fatal("reflection lost")
		}
		if r.Value.Seq != st.Seq {
			b.Fatalf("frame %d arrived as %d", st.Seq, r.Value.Seq)
		}
	}
}

// --- EXP-3: initialization protocol (§2.3) ------------------------------

// BenchmarkChannelSetup measures the full initialization handshake: one op
// = register a subscriber, broadcast SUBSCRIPTION, receive ACKNOWLEDGE,
// build the virtual channel, and tear it down again (untimed). Each op
// registers a new LP: the same LP registered again at once can overtake
// its own BYE, and would then time the repair interval, not the handshake.
func BenchmarkChannelSetup(b *testing.B) {
	ctx := context.Background()
	lan := transport.NewMemLAN()
	pubNode, err := cb.New(lan, "pub-pc", cb.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer pubNode.Close()
	if _, err := pubNode.PublishObjectClass("p", "State"); err != nil {
		b.Fatal(err)
	}
	subNode, err := cb.New(lan, "sub-pc", cb.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer subNode.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub, err := subNode.SubscribeObjectClass(fmt.Sprintf("s%d", i), "State")
		if err != nil {
			b.Fatal(err)
		}
		if err := sub.WaitMatchedContext(ctx); err != nil {
			b.Fatal("never matched")
		}
		b.StopTimer()
		_ = sub.Close()
		b.StartTimer()
	}
}

// --- EXP-4: Stewart platform (§3.4) -------------------------------------

// BenchmarkStewartIK: one op = one inverse-kinematics solution.
func BenchmarkStewartIK(b *testing.B) {
	geo := motion.DefaultGeometry()
	pose := motion.Pose{Surge: 0.04, Heave: 0.02, Roll: 0.03, Pitch: 0.04, Yaw: 0.02}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := geo.IK(pose); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMotionController: one op = one washout cue plus one platform
// tick (the 120 Hz controller loop body).
func BenchmarkMotionController(b *testing.B) {
	ctrl, err := motion.NewController(motion.DefaultGeometry(), motion.DefaultWashout(), 16, 1)
	if err != nil {
		b.Fatal(err)
	}
	cue := fom.MotionCue{SpecificForce: mathx.V3(0.3, -9.7, -1.5), Vibration: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%8 == 0 {
			ctrl.Cue(cue, 1.0/120)
		}
		ctrl.Step(1.0 / 120)
	}
}

// --- EXP-5: dynamics and collision (§3.6) -------------------------------

// BenchmarkHookOscillation: one op = one 60 Hz dynamics step with the hook
// pendulum swinging free after a boom stop.
func BenchmarkHookOscillation(b *testing.B) {
	hs := make([]float64, 101*101)
	ter, err := terrain.New(101, 101, 2, hs)
	if err != nil {
		b.Fatal(err)
	}
	// The classic exam's crane on a flat plane; its cargo rests 150 m away.
	rig, err := scenario.NewRig(scenario.Classic(), ter)
	if err != nil {
		b.Fatal(err)
	}
	m := rig.Models[0]
	for i := 0; i < 300; i++ { // raise boom, excite the pendulum
		m.Step(fom.ControlInput{Ignition: true, BoomJoyY: 1}, 1.0/60)
	}
	for i := 0; i < 120; i++ {
		m.Step(fom.ControlInput{Ignition: true, BoomJoyX: 1}, 1.0/60)
	}
	in := fom.ControlInput{Ignition: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(in, 1.0/60)
	}
}

// BenchmarkCollisionMultiLevel and BenchmarkCollisionBruteForce: one op =
// one FindContacts pass over a 60-object field; the ratio is the
// multi-level speedup (Moore & Wilhelms, ref [10]).
func BenchmarkCollisionMultiLevel(b *testing.B) { benchCollision(b, false) }

// BenchmarkCollisionBruteForce is the ablation baseline.
func BenchmarkCollisionBruteForce(b *testing.B) { benchCollision(b, true) }

func benchCollision(b *testing.B, brute bool) {
	w := &collision.World{BruteForce: brute}
	for i := 0; i < 60; i++ {
		o := collision.NewObject(fmt.Sprintf("o%d", i), collision.BoxMesh(0.5, 0.5, 0.5))
		o.SetPose(mathx.V3(float64(i%8)*4, 0, float64(i/8)*4), mathx.QuatIdentity())
		w.Add(o)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.FindContacts()
	}
}

// --- EXP-6: licensing exam (§3.5) ---------------------------------------

// BenchmarkExamScenario: one op = the complete licensing exam — drive,
// lift, traverse, return — flown headless by the autopilot at 60 Hz with
// the instructor's live status text on, rig build included.
func BenchmarkExamScenario(b *testing.B) {
	spec := scenario.Classic()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fl, err := trace.NewFlight(spec, trace.SkillProfile{})
		if err != nil {
			b.Fatal(err)
		}
		fl.Engine.SetLiveStatus(true)
		for fl.SimTime < 600 && !fl.Done() {
			fl.Tick()
		}
		if fl.Engine.Phase() != fom.PhaseComplete {
			b.Fatalf("exam did not complete: %v", fl.Engine.Phase())
		}
	}
}

// BenchmarkScenarioLibrary: one op = one shipped scenario completed
// headless by the generalized autopilot — the per-scenario cost floor the
// batch runner multiplies out.
func BenchmarkScenarioLibrary(b *testing.B) {
	for _, spec := range scenario.Library() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := trace.RunContext(context.Background(), spec, 900)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Passed {
					b.Fatalf("%s: %v score=%.1f", spec.Name, res.State.Phase, res.State.Score)
				}
			}
		})
	}
}

// --- EXP-7: full federation (§2.1, §5) ----------------------------------

// BenchmarkFullSimulatorBoot: one op = construct, start and stop the whole
// eight-computer federation (all channels established, all LPs launched).
func BenchmarkFullSimulatorBoot(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cluster, err := sim.New(sim.Config{
			TimeScale:    8,
			Width:        96,
			Height:       72,
			Polygons:     400,
			RenderFrames: 1,
			Autopilot:    true,
			AutoStart:    true,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := cluster.Start(); err != nil {
			b.Fatal(err)
		}
		cluster.Stop()
	}
}

// --- EXP-8: campaign certification at scale -------------------------------

// BenchmarkHeadlessRun: one op = one trace.Flight.Tick — autopilot
// control, dynamics step, engine StepAll on the shared default site with
// live status text off — the kernel trace.Runner.RunSkill flies and the
// certification oracle multiplies by ~100k. The steady-state step must
// stay allocation-free (gated in BENCH_baseline.json); the sim-s/s metric
// is the single-lane oracle throughput ceiling.
func BenchmarkHeadlessRun(b *testing.B) {
	spec := scenario.Classic()
	build := func() *trace.Flight {
		fl, err := trace.NewFlight(spec, trace.SkillProfile{})
		if err != nil {
			b.Fatal(err)
		}
		return fl
	}
	fl := build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fl.Done() {
			b.StopTimer()
			fl = build() // fresh rig; amortized over the ~40k steps a run takes
			b.StartTimer()
		}
		fl.Tick()
	}
	b.ReportMetric(float64(b.N)*trace.Dt/b.Elapsed().Seconds(), "sim-s/s")
}

// BenchmarkLibraryFlight: one op = one 60 Hz tick of the shipped library
// flown through one reusable trace.Runner, rig builds included — what a
// codbatch worker slot pays per simulated tick. Flights run whole (the
// last one is cut to the ticks b.N has left), so run it at 100000x or
// more; the per-flight setup then amortizes under one allocation per tick
// and the 0 allocs/op ceiling (BENCH_baseline.json) catches any per-tick
// allocation. sim-s/s is the single-lane sweep throughput.
func BenchmarkLibraryFlight(b *testing.B) {
	lib := scenario.Library()
	runner := new(trace.Runner)
	ctx := context.Background()
	simS := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for ticks, i := 0, 0; ticks < b.N; i++ {
		spec := lib[i%len(lib)]
		budget := math.Min(trace.DefaultBudget(spec), float64(b.N-ticks)*trace.Dt)
		res, err := runner.RunSkill(ctx, spec, budget, trace.SkillProfile{})
		if err != nil && !errors.Is(err, trace.ErrIncomplete) {
			b.Fatal(err)
		}
		simS += res.SimTime
		ticks += int(math.Ceil(res.SimTime / trace.Dt))
	}
	b.ReportMetric(simS/b.Elapsed().Seconds(), "sim-s/s")
}

// BenchmarkJudgeCollisions: one op = one Engine.StepAll on the classic
// course during the drive phase, so the step is the collision judge — move
// the hook and cargo proxies, test both against every bar — plus the alarm
// check and one cursor distance. The proxies move every op: the cargo
// crosses the bar row at walking pace on a wave that mostly clears the
// tops and dips into them on about one op in ten, so all three levels
// run in roughly a careful trainee's proportions. Gated at 0 allocs/op.
func BenchmarkJudgeCollisions(b *testing.B) {
	spec := scenario.Classic()
	eng, err := scenario.NewEngineSpec(spec, crane.DefaultSpec())
	if err != nil {
		b.Fatal(err)
	}
	eng.SetLiveStatus(false)
	eng.Start()
	from := spec.Course.Circle.Add(mathx.V3(-2, 0, 0.3))
	states := []fom.CraneState{{Position: spec.Course.Start, BoomLuff: mathx.Rad(50), Stability: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := from.Add(mathx.V3(float64(i%1900)*0.01, 3.4+0.45*math.Sin(float64(i)*0.013), 0))
		states[0].CargoPos = at
		states[0].HookPos = at.Add(mathx.V3(0, 1.2, 0))
		eng.StepAll(states, 1.0/60)
	}
}

// BenchmarkOracleCertify: one op = one full certification dry-run — rig
// build, expert flight to a terminal phase, verdict — on a fixed
// certified generated candidate, through the same reusable Runner a
// campaign's oracle loop holds. This is the per-candidate cost a 100k
// campaign pays on every cache miss; the alloc ceiling (gated in
// BENCH_baseline.json) keeps the per-run setup from regressing back to
// per-step churn.
func BenchmarkOracleCertify(b *testing.B) {
	p := gen.DefaultParams()
	var spec scenario.Spec
	found := false
	for k := int64(0); k < 50 && !found; k++ {
		cand, err := gen.Generate(gen.SubSeed(7, k), p)
		if err != nil {
			b.Fatal(err)
		}
		if gen.StaticCheck(cand) != nil {
			continue
		}
		if _, ok, err := trace.Completable(context.Background(), cand, 900); err == nil && ok {
			spec, found = cand, true
		}
	}
	if !found {
		b.Fatal("no certifiable candidate in 50 samples")
	}

	runner := &trace.Runner{StallBudget: trace.DefaultStallBudget}
	ctx := context.Background()
	simS := 0.0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := runner.RunSkill(ctx, spec, 900, trace.SkillProfile{})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Passed {
			b.Fatal("certified candidate stopped passing mid-benchmark")
		}
		simS += res.SimTime
	}
	b.ReportMetric(simS/b.Elapsed().Seconds(), "sim-s/s")
}
