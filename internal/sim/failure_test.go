package sim

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"codsim/internal/cb"
	"codsim/internal/clock"
)

// TestDisplayNodeDeath kills one display computer mid-run: the
// synchronization server must evict it after its stall timeout so the
// remaining displays keep rendering — one dead PC must not freeze the
// surround view. The backbones and the barrier run on a manual clock,
// moved only once both survivors have sent the READY the dead display
// holds up (a display draws frame f+1 only once it has sent READY f).
func TestDisplayNodeDeath(t *testing.T) {
	clk := clock.NewManual()
	c, err := New(Config{
		CB:        cb.Config{Clock: clk},
		TimeScale: 8,
		Width:     96,
		Height:    72,
		Polygons:  400,
		Autopilot: true,
		AutoStart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var drawing [3]atomic.Uint32 // the frame each display last began to draw
	c.onFrame = func(d *displayNode, frame uint32) { drawing[d.camIdx].Store(frame) }
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)

	waitUntil(t, nil, "no steady state before fault injection", func() bool { return c.server.Swaps() >= 10 })

	// Kill display computer 2 (backbone and all).
	if err := c.Backbone("display-pc-2").Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, nil, "the survivors never reported the held frame", func() bool {
		held := c.server.Frame()
		return drawing[0].Load() > held && drawing[2].Load() > held
	})

	// The server must evict it and the survivors must keep swapping. The
	// clock moves a tenth of a second a poll, ten times the wall's pace: a
	// link falls only if its peer's timer loop misses some ten ticks in a
	// row, and the survivors' READYs are handled long before they are
	// a stall timeout old.
	waitUntil(t, nil, "dead display never evicted", func() bool {
		clk.Advance(100 * time.Millisecond)
		return c.server.Evicted() > 0
	})
	if got := c.server.Displays(); len(got) != 2 || slices.Contains(got, "display-2") {
		t.Errorf("admitted after the eviction: %v, want the two survivors", got)
	}
	afterEvict := c.server.Swaps()
	waitUntil(t, nil, "surround view frozen after display death", func() bool { return c.server.Swaps() >= afterEvict+10 })
}

// TestInstructorFaultInjection drives the §3.3 trouble-shooting loop over
// the live federation: the instructor clicks an instrument on the mirror
// window; the command crosses the CB to dashboard-pc and forces the
// mockup's needle; clearing restores live display.
func TestInstructorFaultInjection(t *testing.T) {
	c := startCluster(t, Config{
		TimeScale: 8,
		Width:     96,
		Height:    72,
		Polygons:  400,
		Autopilot: true,
		AutoStart: true,
	})

	// Wait for steady traffic so the InstructorCmd channel exists: the
	// dashboard and the scenario both subscribe.
	waitUntil(t, nil, "instructor command channels never up", func() bool { return c.cmdPub.Channels() >= 2 })

	if err := c.InjectFault("rpm", 2950); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, nil, "fault never reached the mockup dashboard", func() bool {
		inst := c.Panel().Instrument("rpm")
		return inst != nil && inst.Faulted() && inst.Value() == 2950
	})

	if err := c.ClearFault("rpm"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, nil, "fault never cleared on the mockup dashboard", func() bool { return !c.Panel().Instrument("rpm").Faulted() })
}

// TestDynamicsNodeDeath kills the simulation computer: the displays lose
// their state feed but the barrier must keep cycling (they re-render the
// last known state), and the affected subscriptions must re-arm their
// broadcasts — the §2.3 re-discovery behaviour.
func TestDynamicsNodeDeath(t *testing.T) {
	c := startCluster(t, Config{
		TimeScale: 8,
		Width:     96,
		Height:    72,
		Polygons:  400,
		Autopilot: true,
		AutoStart: true,
	})

	waitUntil(t, nil, "no steady state", func() bool { return c.server.Swaps() >= 10 })

	// Stop the dynamics/scenario/audio LP loops first so they do not
	// report errors into the cluster when their backbone vanishes.
	c.group.Stop()
	if err := c.Backbone(NodeSim).Close(); err != nil {
		t.Fatal(err)
	}

	before := c.server.Swaps()
	waitUntil(t, nil, "displays froze after dynamics death", func() bool { return c.server.Swaps() >= before+10 })

	// The display state subscriptions must have noticed the publisher's
	// departure and returned to unmatched (fast re-broadcast).
	waitUntil(t, nil, "state subscriptions never noticed publisher death", func() bool {
		for _, d := range c.displays {
			if d.stateIn.Matched() {
				return false
			}
		}
		return true
	})
}
