// Package sim assembles the complete mobile crane simulator on the COD:
// the seven modules of Fig. 3 placed across eight computers exactly like
// the paper's rack (Fig. 11) — three display PCs, the synchronization
// server, and four PCs hosting the dashboard, motion-platform, instructor
// and simulation (dynamics + scenario + audio) LPs. Every inter-module
// exchange rides the Communication Backbone's virtual channels; nothing
// talks directly.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"codsim/internal/audio"
	"codsim/internal/cb"
	"codsim/internal/dashboard"
	"codsim/internal/displaysync"
	"codsim/internal/fom"
	"codsim/internal/instructor"
	"codsim/internal/lp"
	"codsim/internal/mathx"
	"codsim/internal/metrics"
	"codsim/internal/render"
	"codsim/internal/scenario"
	"codsim/internal/terrain"
	"codsim/internal/trace"
	"codsim/internal/transport"
)

// Node names of the eight computers (Fig. 11).
const (
	NodeDisplay1   = "display-1"
	NodeDisplay2   = "display-2"
	NodeDisplay3   = "display-3"
	NodeSyncServer = "sync-server"
	NodeDashboard  = "dashboard-pc"
	NodeMotion     = "motion-pc"
	NodeInstructor = "instructor-pc"
	NodeSim        = "sim-pc"
)

// Config assembles a cluster.
type Config struct {
	// LAN is the network segment; nil uses a fresh in-memory LAN.
	LAN transport.LAN
	// CB tunes the Communication Backbone protocol timers.
	CB cb.Config
	// Displays is the surround-view width in monitors (default 3).
	Displays int
	// Polygons is the scene budget (default 3235, the paper's scene).
	Polygons int
	// Width, Height set each display's framebuffer (default 640×480).
	Width, Height int
	// TimeScale accelerates the paced LPs for tests (default 1).
	TimeScale float64
	// Seed drives all stochastic pieces.
	Seed int64
	// RenderFrames caps how many frames each display renders; 0 = until
	// Stop.
	RenderFrames int
	// Scenario selects the workload the cluster loads; nil runs the
	// classic licensing exam. Any scenario.Spec works: the scenario LP
	// interprets its phase graph, the dynamics LPs host its cargo set and
	// wind, and the displays apply its visibility. A spec declaring N
	// cranes spawns one dynamics, motion and autopilot participant per
	// carrier — the FOM's multiple-publishers-per-class rule carries the
	// extra CraneState/MotionCue/ControlInput traffic on the same
	// channels, demultiplexed by CraneID.
	Scenario *scenario.Spec
	// Autopilot drives the scenario when true; otherwise the dashboard
	// publishes neutral controls. Multi-crane scenarios get one autopilot
	// per declared crane.
	Autopilot bool
	// Skill degrades the autopilots (reaction lag, overshoot, widened
	// slack); the zero value is the flawless expert.
	Skill trace.SkillProfile
	// AutoStart arms the scenario immediately.
	AutoStart bool
	// CaptureAudioSec keeps the last N seconds of the audio module's
	// mixed PCM for export (0 disables capture).
	CaptureAudioSec float64
}

func (c Config) withDefaults() Config {
	if c.LAN == nil {
		c.LAN = transport.NewMemLAN()
	}
	if c.Displays <= 0 {
		c.Displays = 3
	}
	if c.Polygons <= 0 {
		c.Polygons = 3235
	}
	if c.Width <= 0 {
		c.Width = 640
	}
	if c.Height <= 0 {
		c.Height = 480
	}
	if c.TimeScale <= 0 {
		c.TimeScale = 1
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Summary reports a finished run.
type Summary struct {
	Scenario    fom.ScenarioState
	DisplayFPS  []float64
	ServerSwaps int64
	Evicted     int64
	MotionSat   int64
	AudioVoices int64
	Alarms      []instructor.AlarmEvent
	AlarmEvents uint32 // scenario-engine alarm lamp count (all cranes)
	Status      fom.StatusReport
}

// Cluster is a running simulator.
type Cluster struct {
	cfg Config

	backbones map[string]*cb.Backbone
	group     lp.Group

	server   *displaysync.Server
	displays []*displayNode
	monitor  *instructor.Monitor
	mixer    *audio.Mixer
	panel    *dashboard.Panel // the mockup dashboard on dashboard-pc
	cmdPub   *cb.Publication  // instructor-pc's InstructorCmd publication

	craneCount int // carriers declared by the loaded scenario

	mu         sync.Mutex
	scenState  fom.ScenarioState
	scenAlarms uint32 // engine alarm-lamp count, cached per tick
	motionSat  metrics.Counter
	pcmRing    []float64 // captured audio, ring of cfg.CaptureAudioSec
	pcmPos     int
	pcmFull    bool
	// edge is closed and replaced when the exam changes phase or an LP
	// fails: what WaitExamContext sleeps on.
	edge chan struct{}

	stopOnce sync.Once
	stopCh   chan struct{}
	wg       sync.WaitGroup
	errMu    sync.Mutex
	firstErr error

	// onFrame, which only this package's tests set, runs at the start of
	// every frame a display draws, once its plane is the render target.
	onFrame func(d *displayNode, frame uint32)
}

type displayNode struct {
	client  *displaysync.Display
	builder *render.SceneBuilder
	rend    *render.Renderer
	// planes are the colour planes frames alternate between by parity:
	// the display draws frame f+1 while frame f waits for its swap
	// (displaysync's package doc, "Render-ahead"). planes[0] is the
	// renderer's own; planes[1] is allocated by the first frame drawn
	// ahead.
	planes  [2]*render.Framebuffer
	camIdx  int
	stateIn *cb.Subscription
}

// New builds and wires the whole cluster; Start launches it.
func New(cfg Config) (*Cluster, error) {
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:       cfg,
		backbones: make(map[string]*cb.Backbone, cfg.Displays+5),
		edge:      make(chan struct{}),
		stopCh:    make(chan struct{}),
	}

	ter, err := terrain.GenerateSite(terrain.SiteConfig{
		Width: 200, Depth: 200, Spacing: 2, Roughness: 0.4, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("sim: terrain: %w", err)
	}
	spec := scenario.Classic()
	if cfg.Scenario != nil {
		spec = *cfg.Scenario
	}
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	c.craneCount = spec.CraneCount()

	if err := c.buildSyncServer(); err != nil {
		c.teardown()
		return nil, err
	}
	if err := c.buildDisplays(ter, spec); err != nil {
		c.teardown()
		return nil, err
	}
	if err := c.buildSimPC(ter, spec); err != nil {
		c.teardown()
		return nil, err
	}
	if err := c.buildDashboard(spec); err != nil {
		c.teardown()
		return nil, err
	}
	if err := c.buildMotion(); err != nil {
		c.teardown()
		return nil, err
	}
	if err := c.buildInstructor(); err != nil {
		c.teardown()
		return nil, err
	}
	return c, nil
}

// backbone attaches a node to the LAN.
func (c *Cluster) backbone(node string) (*cb.Backbone, error) {
	b, err := cb.New(c.cfg.LAN, node, c.cfg.CB)
	if err != nil {
		return nil, fmt.Errorf("sim: node %s: %w", node, err)
	}
	c.backbones[node] = b
	return b, nil
}

// reportErr records a display loop's or an LP's failure — unless Stop has
// begun, when a closed barrier client or backbone is the shutdown's own
// doing — and wakes WaitExamContext.
func (c *Cluster) reportErr(err error) {
	select {
	case <-c.stopCh:
		return
	default:
	}
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.errMu.Unlock()
	c.mu.Lock()
	c.wakeLocked()
	c.mu.Unlock()
}

// wakeLocked fires the edge WaitExamContext sleeps on. The caller holds
// c.mu.
func (c *Cluster) wakeLocked() {
	close(c.edge)
	c.edge = make(chan struct{})
}

// Err returns the first asynchronous error observed by any LP.
func (c *Cluster) Err() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.firstErr != nil {
		return c.firstErr
	}
	return c.group.Err()
}

// Start launches every LP. The display loops run until RenderFrames is
// reached or Stop is called.
func (c *Cluster) Start() error {
	if err := c.group.Start(); err != nil {
		return fmt.Errorf("sim: start: %w", err)
	}
	for _, d := range c.displays {
		c.wg.Add(1)
		go c.displayLoop(d)
	}
	return nil
}

// Stop halts all LPs and closes every backbone.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stopCh) })
	c.group.Stop()
	// Closing the barrier clients ends a display parked in WaitSwap now,
	// instead of when the server evicts a stopped peer.
	for _, d := range c.displays {
		_ = d.client.Close()
	}
	c.wg.Wait()
	if c.server != nil {
		c.server.Stop()
	}
	c.teardown()
}

func (c *Cluster) teardown() {
	for _, b := range c.backbones {
		_ = b.Close()
	}
}

// ScenarioState returns the latest observed scenario state.
func (c *Cluster) ScenarioState() fom.ScenarioState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scenState
}

// WaitExamContext blocks until the exam reaches a terminal phase or the
// timeout elapses. A canceled context stops the wait and returns ctx.Err()
// with the last observed state, letting a batch coordinator abandon a run
// instead of leaking the federation.
func (c *Cluster) WaitExamContext(ctx context.Context, timeout time.Duration) (fom.ScenarioState, error) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		c.mu.Lock()
		s, edge := c.scenState, c.edge
		c.mu.Unlock()
		if s.Phase == fom.PhaseComplete || s.Phase == fom.PhaseFailed {
			return s, nil
		}
		if err := ctx.Err(); err != nil {
			return s, err
		}
		if err := c.Err(); err != nil {
			return s, err
		}
		select {
		case <-edge:
		case <-ctx.Done():
		case <-deadline.C:
			return s, fmt.Errorf("sim: exam still %v after %v", s.Phase, timeout)
		}
	}
}

// AlarmEvents returns the scenario engine's alarm-lamp count so far
// (safety alarms plus collisions, all cranes).
func (c *Cluster) AlarmEvents() uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.scenAlarms
}

// Summary collects the run's results.
func (c *Cluster) Summary() Summary {
	s := Summary{
		Scenario:    c.ScenarioState(),
		ServerSwaps: c.server.Swaps(),
		Evicted:     c.server.Evicted(),
		MotionSat:   c.motionSat.Value(),
		Alarms:      c.monitor.AlarmLog(),
		AlarmEvents: c.AlarmEvents(),
		Status:      c.monitor.Report(0),
	}
	for _, d := range c.displays {
		s.DisplayFPS = append(s.DisplayFPS, d.client.FPS())
	}
	if c.mixer != nil {
		started, _ := c.mixer.Stats()
		s.AudioVoices = started
	}
	return s
}

// Backbone returns a node's backbone (introspection for tests/examples).
func (c *Cluster) Backbone(node string) *cb.Backbone { return c.backbones[node] }

// Monitor returns the instructor monitor.
func (c *Cluster) Monitor() *instructor.Monitor { return c.monitor }

// capturePCM appends one rendered block into the capture ring.
func (c *Cluster) capturePCM(block []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range block {
		c.pcmRing[c.pcmPos] = s
		c.pcmPos++
		if c.pcmPos == len(c.pcmRing) {
			c.pcmPos = 0
			c.pcmFull = true
		}
	}
}

// AudioPCM returns the captured tail of the audio module's output in
// chronological order (empty without CaptureAudioSec). Export it with
// audio.WriteWAV.
func (c *Cluster) AudioPCM() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pcmRing) == 0 {
		return nil
	}
	if !c.pcmFull {
		return append([]float64(nil), c.pcmRing[:c.pcmPos]...)
	}
	out := make([]float64, 0, len(c.pcmRing))
	out = append(out, c.pcmRing[c.pcmPos:]...)
	out = append(out, c.pcmRing[:c.pcmPos]...)
	return out
}

// Panel returns the mockup dashboard's instrument panel (dashboard-pc).
func (c *Cluster) Panel() *dashboard.Panel { return c.panel }

// InjectFault performs the instructor's trouble-shooting click (§3.3):
// the command is published from instructor-pc over the CB and forces the
// named instrument on the mockup dashboard to the given value.
func (c *Cluster) InjectFault(instrument string, value float64) error {
	cmd, err := c.monitor.InjectFault(instrument, value)
	if err != nil {
		return err
	}
	return c.publishCmd(cmd)
}

// ClearFault clears an injected instrument fault.
func (c *Cluster) ClearFault(instrument string) error {
	cmd, err := c.monitor.ClearFault(instrument)
	if err != nil {
		return err
	}
	return c.publishCmd(cmd)
}

// publishCmd pushes one instructor command through its Reliable channels
// with the blocking form: a click must reach EVERY consumer, and the
// non-blocking Update would half-deliver when one window is full —
// dropping the command loses that consumer's copy, retrying duplicates
// the others'. The consumers poll every LP tick, so a stall here is
// milliseconds; the timeout only guards a wedged federation.
func (c *Cluster) publishCmd(cmd fom.InstructorCmd) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return c.cmdPub.UpdateContext(ctx, 0, cmd.Encode())
}

// displayName returns the display LP name for index i (0-based).
func displayName(i int) string { return fmt.Sprintf("display-%d", i+1) }

// buildSyncServer sets up the fourth computer.
func (c *Cluster) buildSyncServer() error {
	b, err := c.backbone(NodeSyncServer)
	if err != nil {
		return err
	}
	expected := make([]string, c.cfg.Displays)
	for i := range expected {
		expected[i] = displayName(i)
	}
	c.server, err = displaysync.NewServer(b, "sync", displaysync.ServerConfig{
		Expected:     expected,
		StallTimeout: 5 * time.Second,
	})
	if err != nil {
		return fmt.Errorf("sim: sync server: %w", err)
	}
	c.server.Start()
	return nil
}

// buildDisplays sets up the display computers with their surround cameras.
func (c *Cluster) buildDisplays(ter *terrain.Map, spec scenario.Spec) error {
	course := spec.Course
	obstacles := make([]render.Obstacle, 0, len(course.Bars))
	for _, bar := range course.Bars {
		obstacles = append(obstacles, render.Obstacle{
			Pos:   bar.Pos,
			Half:  bar.Half,
			Yaw:   bar.Yaw,
			Color: render.RGB{R: 220, G: 40, B: 40},
		})
	}
	for i := 0; i < c.cfg.Displays; i++ {
		nodeName := fmt.Sprintf("display-pc-%d", i+1)
		b, err := c.backbone(nodeName)
		if err != nil {
			return err
		}
		client, err := displaysync.NewDisplay(b, displayName(i))
		if err != nil {
			return fmt.Errorf("sim: display %d: %w", i+1, err)
		}
		builder, err := render.NewSceneBuilder(ter, obstacles, c.cfg.Polygons)
		if err != nil {
			return fmt.Errorf("sim: scene %d: %w", i+1, err)
		}
		for extra := 1; extra < c.craneCount; extra++ {
			builder.AddCrane()
		}
		if spec.Visibility > 0 && spec.Visibility < 1 {
			builder.SetVisibility(spec.Visibility)
		}
		rend, err := render.NewRenderer(c.cfg.Width, c.cfg.Height)
		if err != nil {
			return fmt.Errorf("sim: renderer %d: %w", i+1, err)
		}
		// Every carrier publishes on the CraneState class; a latest-value
		// mailbox keeps memory bounded when a render stall backs it up.
		// Conflation is per virtual channel — per publishing NODE, and
		// every dynamics LP lives on sim-pc — so the stall guarantee is
		// newest-per-node; the depth-128 queue keeps enough history that
		// the per-crane fold below stays fresh while all carriers publish.
		stateIn, err := b.SubscribeObjectClass(displayName(i), fom.ClassCraneState, cb.WithQueue(128), cb.WithLatestValue())
		if err != nil {
			return fmt.Errorf("sim: display %d subscribe: %w", i+1, err)
		}
		c.displays = append(c.displays, &displayNode{
			client:  client,
			builder: builder,
			rend:    rend,
			planes:  [2]*render.Framebuffer{rend.Framebuffer()},
			camIdx:  i,
			stateIn: stateIn,
		})
	}
	return nil
}

// displayLoop is one display computer's render loop: latest crane state →
// scene → rasterize → barrier, RenderFrames times or until Stop closes the
// barrier client (displaysync.ErrStopped, which reportErr drops).
func (c *Cluster) displayLoop(d *displayNode) {
	defer c.wg.Done()
	if !d.client.WaitServer(10 * time.Second) {
		c.reportErr(errors.New("sim: display never linked to sync server"))
		return
	}
	frames := c.cfg.RenderFrames
	if frames <= 0 {
		frames = math.MaxInt
	}
	last := make([]fom.CraneState, c.craneCount)
	err := d.client.RunFrames(frames, 10*time.Second, func(frame uint32) {
		c.drawFrame(d, last, frame)
	})
	if err != nil {
		c.reportErr(err)
	}
}

// drawFrame draws one frame of display d into the plane of its parity,
// from the newest crane states folded into last.
func (c *Cluster) drawFrame(d *displayNode, last []fom.CraneState, frame uint32) {
	plane := &d.planes[frame%2]
	if *plane == nil {
		*plane = &render.Framebuffer{W: c.cfg.Width, H: c.cfg.Height, Color: make([]render.RGB, c.cfg.Width*c.cfg.Height)}
	}
	d.rend.Retarget(*plane)
	if c.onFrame != nil {
		c.onFrame(d, frame)
	}
	drainCraneStates(d.stateIn, last, nil)
	for idx := range last {
		d.builder.UpdateCrane(idx, last[idx])
	}
	scene := d.builder.Scene()
	// The surround view rides crane 0 — the operator cab.
	eye := last[0].Position.Add(mathx.V3(0, 3.2, 0))
	cam := render.SurroundCamera(eye, last[0].Heading, d.camIdx, c.cfg.Displays,
		mathx.Rad(40), float64(c.cfg.Width)/float64(c.cfg.Height))
	d.rend.Render(scene, cam)
}
