package cb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"codsim/internal/clock"
	"codsim/internal/transport"
	"codsim/internal/wire"
)

func TestWaitChannels(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	// No subscribers yet: the wait must end with its context.
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if pub.WaitChannelsContext(short, 1) == nil {
		t.Fatal("WaitChannels succeeded with no subscribers")
	}
	subNode := newBackbone(t, lan, "sub")
	if _, err := subNode.SubscribeObjectClass("s", "State"); err != nil {
		t.Fatal(err)
	}
	if pub.WaitChannelsContext(ctx, 1) != nil {
		t.Fatal("WaitChannels never saw the channel")
	}
	if pub.Channels() != 1 {
		t.Errorf("Channels = %d", pub.Channels())
	}
}

func TestTablesAcrossNodes(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")
	pub, err := pubNode.PublishObjectClass("dyn", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("vis", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("not matched")
	}
	pubs, _ := pubNode.Tables()
	if len(pubs) != 1 || pubs[0].Channels != 1 {
		t.Errorf("publisher tables = %+v", pubs)
	}
	_, subs := subNode.Tables()
	if len(subs) != 1 || subs[0].Channels != 1 {
		t.Errorf("subscriber tables = %+v", subs)
	}
	_ = pub
}

// TestSilentPendingLinkReaped plants a raw connection that never speaks:
// the heartbeat reaper must close it instead of leaking it forever.
func TestSilentPendingLinkReaped(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	clk := clock.NewManual()
	b := joinNode(t, lan, "server", Config{Clock: clk})

	ifc, err := lan.Attach("mute-client")
	if err != nil {
		t.Fatal(err)
	}
	defer ifc.Close()
	conn, err := ifc.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if pollCond(ctx, func() bool { return len(liveLinks(b)) == 1 }) != nil {
		t.Fatal("the link was never accepted")
	}
	// Never send anything. A sweep past the heartbeat timeout must drop the
	// pending link, observable as EOF on our side. The clock steps one
	// heartbeat period at a time, each step once the timer loop has armed
	// its timer again. The link's silence passes the timeout at the fifth
	// sweep; one step more covers a loop that began its silence a step
	// late, and a reaper slower than that fails.
	steps := int(heartbeatTimeout/heartbeatInterval) + 2
	for step := 0; step < steps && len(liveLinks(b)) > 0; step++ {
		if err := clk.WaitTimers(ctx, 1); err != nil {
			t.Fatal(err)
		}
		clk.Advance(heartbeatInterval)
	}
	if pollCond(ctx, func() bool { return len(liveLinks(b)) == 0 }) != nil {
		t.Fatalf("silent pending link not reaped within %d heartbeat periods", steps)
	}
	buf := make([]byte, 1)
	errCh := make(chan error, 1)
	go func() {
		_, err := conn.Read(buf) // heartbeats may arrive first
		for err == nil {
			_, err = conn.Read(buf)
		}
		errCh <- err
	}()
	select {
	case <-errCh:
		// Connection closed by the reaper: success.
	case <-time.After(waitLong):
		t.Fatal("the reaped link's connection stayed open")
	}
}

// TestMalformedStreamDropsLink sends garbage on a fresh connection: the
// backbone must tear the link down without disturbing other traffic.
func TestMalformedStreamDropsLink(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "server")
	pub, err := b.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}

	ifc, err := lan.Attach("attacker")
	if err != nil {
		t.Fatal(err)
	}
	defer ifc.Close()
	conn, err := ifc.Dial(b.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{0x00, 0x00, 0x00, 0x04, 0xDE, 0xAD, 0xBE, 0xEF}); err != nil {
		t.Fatal(err)
	}

	// Local traffic still flows.
	if err := pub.Update(1, attrsWith(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.NextContext(ctx); err != nil {
		t.Fatal("local traffic broken by malformed remote frame")
	}
}

// TestSubscriptionCloseDuringTraffic closes a subscription while a remote
// publisher is mid-burst: no panic, no deadlock, and the publisher's
// writes keep succeeding (stale-channel updates are dropped at the
// receiver).
func TestSubscriptionCloseDuringTraffic(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State", WithQueue(16))
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("not matched")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 2000; i++ {
			if err := pub.Update(float64(i), attrsWith(float64(i))); err != nil {
				return
			}
		}
	}()
	if _, err := sub.NextContext(ctx); err != nil { // the burst is arriving
		t.Fatal(err)
	}
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestSubscriberRestartRematches: closing a subscriber LP and registering
// it again (an LP restart, e.g. a display application relaunch) must
// rebuild the virtual channel. This requires the channel-scoped BYE —
// without it the publisher's stale channel entry silences the new
// SUBSCRIPTION broadcasts forever.
func TestSubscriberRestartRematches(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		sub, err := subNode.SubscribeObjectClass("s", "State")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if sub.WaitMatchedContext(ctx) != nil {
			t.Fatalf("round %d: restarted subscriber never re-matched", round)
		}
		if err := pub.Update(float64(round), attrsWith(float64(round))); err != nil {
			t.Fatal(err)
		}
		if _, err := sub.NextContext(ctx); err != nil {
			t.Fatalf("round %d: no traffic after restart", round)
		}
		if err := sub.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPublisherRestartRematches: the symmetric case — a publisher LP
// closes and a new one registers; the standing subscriber must notice the
// dead channel (scoped BYE) and re-match the replacement.
func TestPublisherRestartRematches(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")
	sub, err := subNode.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		pub, err := pubNode.PublishObjectClass("p", "State")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if sub.WaitMatchedContext(ctx) != nil {
			t.Fatalf("round %d: subscriber never matched restarted publisher", round)
		}
		if err := pub.Update(float64(round), attrsWith(float64(round))); err != nil {
			t.Fatal(err)
		}
		if _, err := sub.NextContext(ctx); err != nil {
			t.Fatalf("round %d: no traffic", round)
		}
		if err := pub.Close(); err != nil {
			t.Fatal(err)
		}
		// The subscriber must observe the teardown before the next round.
		if subNode.waitChange(ctx, func() bool { return !sub.Matched() }) != nil {
			t.Fatalf("round %d: subscription never noticed publisher close", round)
		}
	}
}

// TestMailboxNextAfterClose verifies NextContext unblocks with
// ErrHandleClosed when the subscription closes underneath a waiting
// consumer — the context never ends, so only the close can end the wait.
func TestMailboxNextAfterClose(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")
	sub, err := b.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := sub.NextContext(context.Background())
		got <- err
	}()
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, ErrHandleClosed) {
			t.Errorf("NextContext on a closed subscription = %v, want ErrHandleClosed", err)
		}
	case <-time.After(waitLong):
		t.Fatal("NextContext did not unblock on close")
	}
}

// TestAttrsIsolatedFromPublisherMutation: the paper's push model must not
// alias the publisher's buffers — mutating the attribute set after Update
// must not change what subscribers see (the ownership rule, package wire).
func TestAttrsIsolatedFromPublisherMutation(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")
	pub, err := b.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}
	attrs := wire.AttrSet{}
	attrs.PutFloat64(1, 42)
	if err := pub.Update(0, attrs); err != nil {
		t.Fatal(err)
	}
	attrs.PutFloat64(1, -1) // publisher reuses its map
	r, err := sub.NextContext(ctx)
	if err != nil {
		t.Fatal("no reflection")
	}
	if v, _ := r.Attrs.Float64(1); v != 42 {
		t.Errorf("subscriber saw publisher mutation: %v", v)
	}
}

// TestPubSubChurnProperty: random sequences of register/unregister on one
// backbone never corrupt the tables (counts stay consistent).
func TestPubSubChurnProperty(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "churn")
	f := func(ops []uint8) bool {
		var pubs []*Publication
		var subs []*Subscription
		for _, op := range ops {
			switch op % 4 {
			case 0:
				if p, err := b.PublishObjectClass(lpName(len(pubs)), "Churn"); err == nil {
					pubs = append(pubs, p)
				}
			case 1:
				if s, err := b.SubscribeObjectClass(lpName(len(subs)+1000), "Churn"); err == nil {
					subs = append(subs, s)
				}
			case 2:
				if len(pubs) > 0 {
					_ = pubs[len(pubs)-1].Close()
					pubs = pubs[:len(pubs)-1]
				}
			case 3:
				if len(subs) > 0 {
					_ = subs[len(subs)-1].Close()
					subs = subs[:len(subs)-1]
				}
			}
		}
		pt, st := b.Tables()
		okCounts := len(pt) == len(pubs) && len(st) == len(subs)
		for _, p := range pubs {
			_ = p.Close()
		}
		for _, s := range subs {
			_ = s.Close()
		}
		return okCounts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func lpName(i int) string { return "lp-" + string(rune('a'+i%26)) + string(rune('0'+i%10)) }
