package sim

import (
	"context"
	"testing"
	"time"

	"codsim/internal/cb"
	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/trace"
	"codsim/internal/transport"
)

// startCluster boots cfg's federation and stops it when the test ends.
func startCluster(t *testing.T, cfg Config) *Cluster {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// waitUntil polls cond until it holds, and fails the test with what if it
// does not within 20 s, or at once if c (when not nil) reports an error.
func waitUntil(t *testing.T, c *Cluster, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.After(20 * time.Second)
	for !cond() {
		if c != nil {
			if err := c.Err(); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatal(what)
		}
	}
}

// sameVerdictHeadless flies spec on the headless kernel and holds the
// federation's terminal state to its verdict. Verdict only: the LPs run
// at 60/50/30 Hz and are not lock-stepped, so the scores may differ, and
// both are logged.
func sameVerdictHeadless(t *testing.T, spec scenario.Spec, fed fom.ScenarioState) {
	t.Helper()
	ref, err := trace.RunContext(context.Background(), spec, 900)
	if err != nil {
		t.Fatalf("headless %s: %v", spec.Name, err)
	}
	if fedPassed := fed.Phase == fom.PhaseComplete; fedPassed != ref.Passed {
		t.Errorf("%s: federated %v, headless %v", spec.Name, fed.Phase, ref.State.Phase)
	}
	t.Logf("%s: score federated %.1f, headless %.1f", spec.Name, fed.Score, ref.State.Score)
}

// TestClusterBootAndTraffic brings the whole 8-computer federation up,
// lets it run briefly, and checks every module exchanged traffic over the
// Communication Backbone.
func TestClusterBootAndTraffic(t *testing.T) {
	c := startCluster(t, Config{
		TimeScale:    8,
		Width:        160,
		Height:       120,
		Polygons:     800,
		RenderFrames: 12,
		Autopilot:    true,
		AutoStart:    true,
	})

	// Give the federation a moment to exchange traffic (scaled time).
	waitUntil(t, c, "scenario never started", func() bool { return c.ScenarioState().Phase >= fom.PhaseDriving })
	// Displays must complete their frames through the barrier.
	waitUntil(t, c, "server never released 12 swaps", func() bool { return c.server.Swaps() >= 12 })

	sum := c.Summary()
	if len(sum.DisplayFPS) != 3 {
		t.Fatalf("display fps = %v", sum.DisplayFPS)
	}
	for i, fps := range sum.DisplayFPS {
		if fps <= 0 {
			t.Errorf("display %d fps = %v", i+1, fps)
		}
	}
	// The dynamics node must have published to multiple subscribers.
	stats := c.Backbone(NodeSim).Stats()
	if stats.UpdatesSent.Value() == 0 {
		t.Error("sim-pc published nothing")
	}
	if got := c.Backbone(NodeMotion).Stats().ReflectsDelivered.Value(); got == 0 {
		t.Error("motion-pc received no cues")
	}
	if got := c.Backbone(NodeInstructor).Stats().ReflectsDelivered.Value(); got == 0 {
		t.Error("instructor-pc received nothing")
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestClusterStopIsPrompt stops a federation in the state a shutdown race
// leaves it in: one display loop has already left the barrier and its
// peers are parked in WaitSwap. Stop must end those waits itself rather
// than wait for the sync server to evict the missing display
// (StallTimeout, 5 s).
func TestClusterStopIsPrompt(t *testing.T) {
	c, err := New(Config{
		TimeScale: 8,
		Width:     96,
		Height:    72,
		Polygons:  600,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Watch the server's FRAME SWAP releases from its own node: a released
	// swap means all three displays are inside the barrier loop.
	swaps, err := c.Backbone(NodeSyncServer).SubscribeObjectClass("stop-test", fom.ClassFrameSwap, cb.WithQueue(64), cb.WithDropOldest())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	for i := 0; i < 3; i++ {
		if _, err := swaps.NextContext(ctx); err != nil {
			c.Stop()
			t.Fatalf("swap %d never released: %v (cluster err %v)", i, err, c.Err())
		}
	}
	// Display 1 drops out; the other two now wait on a swap that needs it.
	if err := c.displays[0].client.Close(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.Stop()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Stop took %v with displays parked in the barrier, want < 1 s", took)
	}
}

// TestClusterStopDuringStartup stops a federation whose displays are still
// linking to the sync server: closing their clients must end that wait too,
// and the abandoned link is not an error.
func TestClusterStopDuringStartup(t *testing.T) {
	c, err := New(Config{Width: 96, Height: 72, Polygons: 600})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	c.Stop()
	if took := time.Since(start); took > time.Second {
		t.Errorf("Stop took %v during startup, want < 1 s", took)
	}
	if err := c.Err(); err != nil {
		t.Errorf("cluster error after Stop: %v", err)
	}
}

// TestClusterExamCompletes runs the full licensing exam over the real
// federation at high time scale, on an ideal LAN and on one that delays
// every datagram and stream byte by 5 ms (the §2.1/§5 latency ablation).
// Both complete without evicting a display; the delayed one releases far
// fewer swaps, because every frame's READY and SWAP cross the LAN.
func TestClusterExamCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("full exam run")
	}
	swaps := make(map[time.Duration]int64)
	for _, latency := range []time.Duration{0, 5 * time.Millisecond} {
		t.Run(latency.String(), func(t *testing.T) {
			swaps[latency] = flyClusterExam(t, transport.NewMemLAN(transport.WithLatency(latency)))
		})
	}
	if !t.Failed() && swaps[5*time.Millisecond] >= swaps[0] {
		t.Errorf("swaps at 5 ms = %d, not fewer than at 0 ms = %d", swaps[5*time.Millisecond], swaps[0])
	}
}

// flyClusterExam flies the classic exam on a federation over lan, checks
// its verdict, and returns the swaps the barrier released.
func flyClusterExam(t *testing.T, lan transport.LAN) int64 {
	// TimeScale 15 keeps the LP tick demand (~900 ticks/s aggregate)
	// satisfiable even when other test packages share the CPUs.
	c := startCluster(t, Config{
		LAN:       lan,
		TimeScale: 15,
		Width:     96,
		Height:    72,
		Polygons:  600,
		Autopilot: true,
		AutoStart: true,
	})

	final, err := c.WaitExamContext(context.Background(), 180*time.Second)
	if err != nil {
		t.Fatalf("WaitExam: %v (phase %v, msg %q)", err, final.Phase, final.Message)
	}
	if final.Phase != fom.PhaseComplete {
		t.Fatalf("exam phase = %v, score %.1f, msg %q", final.Phase, final.Score, final.Message)
	}
	if final.Score < 60 {
		t.Errorf("score = %v", final.Score)
	}
	sum := c.Summary()
	if sum.ServerSwaps == 0 {
		t.Error("no display swaps during exam")
	}
	if sum.Evicted != 0 {
		t.Errorf("%d displays evicted", sum.Evicted)
	}
	if sum.AudioVoices == 0 {
		t.Error("audio module never played a sound")
	}
	if sum.Status.Score != final.Score {
		t.Errorf("instructor score %v != scenario score %v", sum.Status.Score, final.Score)
	}
	sameVerdictHeadless(t, scenario.Classic(), final)
	t.Logf("exam over COD: score=%.1f elapsed=%.1fs fps=%v swaps=%d audio=%d",
		final.Score, final.Elapsed, sum.DisplayFPS, sum.ServerSwaps, sum.AudioVoices)
	return sum.ServerSwaps
}

// TestAudioCapture verifies the training-review recording: the audio LP's
// mixed output is captured in a ring and exported chronologically.
func TestAudioCapture(t *testing.T) {
	c := startCluster(t, Config{
		TimeScale:       8,
		Width:           96,
		Height:          72,
		Polygons:        400,
		RenderFrames:    4,
		Autopilot:       true,
		AutoStart:       true,
		CaptureAudioSec: 1,
	})

	waitUntil(t, c, "never captured 4096 samples", func() bool { return len(c.AudioPCM()) >= 4096 })
	pcm := c.AudioPCM()
	// The autopilot starts the engine, so the capture is not silence.
	var energy float64
	for _, s := range pcm {
		energy += s * s
	}
	if energy == 0 {
		t.Error("captured audio is pure silence despite the running engine")
	}
	for i, s := range pcm {
		if s < -1 || s > 1 {
			t.Fatalf("sample %d = %v outside [-1,1]", i, s)
		}
	}
}

// TestClusterOverUDP boots the cluster on real loopback sockets.
func TestClusterOverUDP(t *testing.T) {
	lan, err := transport.NewUDPLAN("127.0.0.1", 39600, 16)
	if err != nil {
		t.Fatal(err)
	}
	c := startCluster(t, Config{
		LAN:          lan,
		TimeScale:    8,
		Width:        96,
		Height:       72,
		Polygons:     400,
		RenderFrames: 6,
		Autopilot:    true,
		AutoStart:    true,
	})

	waitUntil(t, c, "never 6 swaps over UDP", func() bool { return c.server.Swaps() >= 6 })
}
