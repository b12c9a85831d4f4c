package sim

import (
	"runtime"
	"testing"
)

// TestFederatedTickAllocatesNothing: once warm, the running federation
// allocates nothing per LP tick and nothing per swap. Every publisher
// encodes into its own set, in-process and link deliveries recycle the
// storage their consumers release, and the backbones' timers and discovery
// refreshes reuse their scratch. What is left is the MemLAN's one copy of
// each discovery refresh and a new string each time a status text reads
// differently (at the engine and at its two subscribers), about 35 a
// simulated second together: far below one a tick. The classic exam runs
// with small displays at fed_exam's pace (TimeScale 4, where its 60 Hz
// LPs tick 240 times a wall second); the count is per simulated second,
// so it does not depend on the host's speed.
func TestFederatedTickAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	c := startCluster(t, Config{
		TimeScale: 4,
		Width:     64,
		Height:    48,
		Polygons:  400,
		Autopilot: true,
		AutoStart: true,
	})
	progress := func() (simS float64, swaps int64) {
		return c.ScenarioState().Elapsed, c.server.Swaps()
	}
	// Warm-up: every channel built, every mailbox, free list and scratch
	// grown to its working size.
	waitUntil(t, c, "the federation never warmed up", func() bool {
		s, n := progress()
		return s >= 3 && n >= 100
	})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	fromS, fromSwaps := progress()
	waitUntil(t, c, "the exam stalled", func() bool {
		s, n := progress()
		return s >= fromS+10 && n >= fromSwaps+300
	})
	runtime.ReadMemStats(&ms)
	toS, toSwaps := progress()
	perSimS := float64(ms.Mallocs-mallocs) / (toS - fromS)
	t.Logf("%d allocations over %.1f simulated seconds and %d swaps: %.1f a simulated second",
		ms.Mallocs-mallocs, toS-fromS, toSwaps-fromSwaps, perSimS)
	if perSimS > 100 {
		t.Errorf("%.0f allocations a simulated second, want at most 100", perSimS)
	}
}
