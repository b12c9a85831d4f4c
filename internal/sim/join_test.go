package sim

import (
	"context"
	"testing"
	"time"

	"codsim/internal/cb"
	"codsim/internal/clock"
	"codsim/internal/transport"
)

// TestJoinBootDatagramCounts pins the discovery datagrams of the
// 8-computer boot on a clock nobody advances, so that the
// backbone's eagerness cannot become a storm unnoticed. sim.New builds one
// computer at a time, each registering everything it has before the next
// attaches, so the count is the topology's: every subscription says
// SUBSCRIPTION once, every publication PUBLICATION once, and a
// subscription still unmatched when a later computer begins publishing its
// class answers that computer once, however many LPs publish it there.
//
// The boot's last solicit answers may still be in flight when Start
// returns, so the test fences them: a barrier subscription on every
// computer, then a ninth computer publishing the barrier class. Its
// PUBLICATION queues behind everything the boot broadcast, and it has its
// eight channels only when every computer has handled it.
func TestJoinBootDatagramCounts(t *testing.T) {
	lan := transport.NewMemLAN()
	eventOnly := cb.Config{Clock: clock.NewManual()}
	c := startCluster(t, Config{
		LAN: lan, CB: eventOnly,
		TimeScale: 8, Width: 160, Height: 120, Polygons: 800,
		Autopilot: true, AutoStart: true,
	})
	if len(c.backbones) != 8 {
		t.Fatalf("%d computers, want 8", len(c.backbones))
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, b := range c.backbones {
		if _, err := b.SubscribeObjectClass("barrier", "test.Barrier"); err != nil {
			t.Fatal(err)
		}
	}
	ninth, err := cb.New(lan, "barrier-pc", eventOnly)
	if err != nil {
		t.Fatal(err)
	}
	defer ninth.Close()
	barrier, err := ninth.PublishObjectClass("barrier", "test.Barrier")
	if err != nil {
		t.Fatal(err)
	}
	if err := barrier.WaitChannelsContext(ctx, len(c.backbones)); err != nil {
		t.Fatalf("barrier: %v", err)
	}

	var subscriptions, solicits int64
	for _, b := range c.backbones {
		subscriptions += b.Stats().BroadcastsSent.Value()
		solicits += b.Stats().SolicitsSent.Value()
	}
	// Two per computer are the barrier's own: the registration and the
	// answer to the ninth computer's solicit.
	subscriptions -= 2 * int64(len(c.backbones))
	// 18 subscriptions and 11 publications. Five answers: the three
	// displays' CraneState to sim-pc, sim-pc's ControlInput to
	// dashboard-pc, dashboard-pc's InstructorCmd to instructor-pc. The
	// sync server's FRAME READY and sim-pc's InstructorCmd subscriptions
	// answer over links they already have, with no datagram.
	if subscriptions != 23 || solicits != 11 {
		t.Errorf("boot sent %d SUBSCRIPTION and %d PUBLICATION datagrams, want 23 and 11", subscriptions, solicits)
	}
}
