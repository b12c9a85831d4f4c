package main

import (
	"fmt"
	"sync"
	"time"

	"codsim/cod"
	"codsim/internal/displaysync"
	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/metrics"
	"codsim/internal/render"
	"codsim/internal/sim"
	"codsim/internal/terrain"
)

// fastSimCB mirrors fastNode's accelerated protocol timers in the form
// sim.Config takes.
func fastSimCB() sim.CBConfig {
	return sim.CBConfig{
		BroadcastInterval: 5 * time.Millisecond,
		RefreshInterval:   50 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  250 * time.Millisecond,
	}
}

// renderRig owns one display computer's renderer and scene.
type renderRig struct {
	builder *render.SceneBuilder
	rend    *render.Renderer
	cam     render.Camera
	state   fom.CraneState
	// pixels and visited total the render ledger over the rig's frames.
	pixels, visited int
}

func newRenderRig(polygons, w, h, camIdx, camCount int) (*renderRig, error) {
	ter, err := terrain.GenerateSite(terrain.DefaultSite())
	if err != nil {
		return nil, err
	}
	builder, err := render.NewSceneBuilder(ter, nil, polygons)
	if err != nil {
		return nil, err
	}
	rend, err := render.NewRenderer(w, h)
	if err != nil {
		return nil, err
	}
	st := fom.CraneState{
		Position: mathx.V3(100, ter.HeightAt(100, 100), 100),
		BoomLuff: mathx.Rad(45), BoomLen: 14, CableLen: 6,
		HookPos:  mathx.V3(100, 6, 90),
		CargoPos: mathx.V3(100, 1, 90),
	}
	eye := st.Position.Add(mathx.V3(0, 3.2, 0))
	cam := render.SurroundCamera(eye, 0, camIdx, camCount, mathx.Rad(40), float64(w)/float64(h))
	return &renderRig{builder: builder, rend: rend, cam: cam, state: st}, nil
}

// renderFrame draws one frame with slight animation so no frame is free.
func (r *renderRig) renderFrame(frame uint32) {
	r.state.BoomSwing = 0.3 * mathx.Rad(float64(frame%120)-60)
	scene := r.builder.Frame(r.state)
	stats := r.rend.Render(scene, r.cam)
	r.pixels += stats.Pixels
	r.visited += stats.Visited
}

// measureFreeRun renders frames unsynchronized on one display. passed is
// the depth-pass ratio over the run, 1 − overdraw: pixels written per
// pixel covered.
func measureFreeRun(polygons, w, h, frames int) (fps, passed float64, err error) {
	rig, err := newRenderRig(polygons, w, h, 0, 1)
	if err != nil {
		return 0, 0, err
	}
	var tracker metrics.FrameTracker
	for f := 0; f < frames; f++ {
		start := time.Now()
		rig.renderFrame(uint32(f))
		tracker.TickInterval(time.Since(start))
	}
	return tracker.FPS(), float64(rig.pixels) / float64(rig.visited), nil
}

// measureSynced runs n displays + the synchronization server over the CB
// and returns the mean achieved fps across displays.
func measureSynced(displays, polygons, w, h, frames int) (fps float64, err error) {
	lan := cod.NewMemLAN()
	serverNode, err := fastNode(lan, "sync-server")
	if err != nil {
		return 0, err
	}
	defer serverNode.Close()

	expected := make([]string, displays)
	for i := range expected {
		expected[i] = fmt.Sprintf("display-%d", i+1)
	}
	// displaysync predates the SDK and takes the raw backbone; Node's
	// documented Backbone() escape hatch exists for exactly these
	// internal modules.
	srv, err := displaysync.NewServer(serverNode.Backbone(), "sync", displaysync.ServerConfig{
		Expected: expected, StallTimeout: 5 * time.Second,
	})
	if err != nil {
		return 0, err
	}
	srv.Start()
	defer srv.Stop()

	type dispUnit struct {
		client *displaysync.Display
		rig    *renderRig
		node   *cod.Node
	}
	units := make([]*dispUnit, displays)
	for i := range units {
		node, err := fastNode(lan, fmt.Sprintf("display-pc-%d", i+1))
		if err != nil {
			return 0, err
		}
		defer node.Close()
		client, err := displaysync.NewDisplay(node.Backbone(), expected[i])
		if err != nil {
			return 0, err
		}
		rig, err := newRenderRig(polygons, w, h, i, displays)
		if err != nil {
			return 0, err
		}
		units[i] = &dispUnit{client: client, rig: rig, node: node}
	}
	for _, u := range units {
		if !u.client.WaitServer(10 * time.Second) {
			return 0, fmt.Errorf("display never linked")
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, displays)
	for i, u := range units {
		wg.Add(1)
		go func(i int, u *dispUnit) {
			defer wg.Done()
			errs[i] = u.client.RunFrames(frames, 30*time.Second, u.rig.renderFrame)
		}(i, u)
	}
	wg.Wait()
	var total float64
	for i, u := range units {
		if errs[i] != nil {
			return 0, errs[i]
		}
		total += u.client.FPS()
	}
	return total / float64(displays), nil
}

// exp1SurroundView reproduces the §4 measurement: synchronized surround
// view fps versus polygon count and display count, against the free-running
// single display. The paper reports 16 fps at 3235 polygons on three
// synchronized displays; on modern CPUs the absolute numbers are far
// higher, but the *shape* — the synchronization overhead and the decline
// with polygon count — is the reproduced result.
func exp1SurroundView(quick bool) error {
	const w, h = 640, 480
	frames := 120
	polySweep := []int{800, 1600, 3235, 6500, 13000}
	if quick {
		frames = 30
		polySweep = []int{800, 3235}
	}

	fmt.Println("paper reference: 3 displays + sync server @ 3235 polygons -> 16 fps")
	tbl := metrics.NewTable("polygons", "free-run 1 display (fps)", "synced 3 displays (fps)", "sync overhead %", "depth-pass ratio (written / covered)")
	for _, p := range polySweep {
		free, passed, err := measureFreeRun(p, w, h, frames)
		if err != nil {
			return err
		}
		synced, err := measureSynced(3, p, w, h, frames)
		if err != nil {
			return err
		}
		overhead := (1 - synced/free) * 100
		tbl.AddRow(p, free, synced, overhead, passed)
	}
	fmt.Print(tbl.String())

	fmt.Println("\ndisplay-count sweep @ 3235 polygons:")
	dispSweep := []int{1, 2, 3, 4}
	if quick {
		dispSweep = []int{1, 3}
	}
	tbl2 := metrics.NewTable("displays", "synced fps", "server swaps/frame")
	for _, d := range dispSweep {
		synced, err := measureSynced(d, 3235, w, h, frames)
		if err != nil {
			return err
		}
		tbl2.AddRow(d, synced, 1)
	}
	fmt.Print(tbl2.String())
	return nil
}
