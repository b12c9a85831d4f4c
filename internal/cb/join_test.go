package cb

import (
	"context"
	"fmt"
	"testing"

	"codsim/internal/clock"
	"codsim/internal/transport"
	"codsim/internal/wire"
)

// The TestJoin tests hold the initialization protocol to its event path:
// on a clock nobody advances, only a first SUBSCRIPTION sent by
// SubscribeObjectClass, a PUBLICATION sent by PublishObjectClass and the
// kick after a teardown can build a channel. Nothing in them sleeps;
// scripts/check.sh runs them -race -count=20.

// eventOnly runs a backbone on a manual clock nobody advances.
func eventOnly() Config {
	return Config{Clock: clock.NewManual()}
}

// joinLANs are the segments a join is held to: the in-memory one and real
// UDP discovery with TCP channels on loopback.
func joinLANs(t *testing.T) map[string]transport.LAN {
	t.Helper()
	base, err := transport.FreeUDPSegment("127.0.0.1", 4)
	if err != nil {
		t.Fatal(err)
	}
	udp, err := transport.NewUDPLAN("127.0.0.1", base, 4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]transport.LAN{"mem": transport.NewMemLAN(), "udp": udp}
}

func joinNode(t *testing.T, lan transport.LAN, node string, cfg Config) *Backbone {
	t.Helper()
	b, err := New(lan, node, cfg)
	if err != nil {
		t.Fatalf("New(%q): %v", node, err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return b
}

// roundTrip pushes one update through the channel and takes it out.
func roundTrip(t *testing.T, ctx context.Context, pub *Publication, sub *Subscription, v float64) {
	t.Helper()
	if err := pub.UpdateContext(ctx, v, attrsWith(v)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	r, err := sub.NextContext(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got, _ := r.Attrs.Float64(1); got != v {
		t.Fatalf("reflected %v, want %v", got, v)
	}
}

// pair is one publisher and one subscriber of a class on two computers.
type pair struct {
	pubNode, subNode *Backbone
	pub              *Publication
	sub              *Subscription
}

// joinPair registers the two in the given order and waits until both
// halves of their channel are up. With lateAttach the second computer
// joins the segment only after the first has registered, so its
// registration datagram found nobody — how sim.New and the dist rigs come
// up; without it both CBs are on the segment throughout. tag keeps the
// names of pairs sharing a segment apart.
func joinPair(t *testing.T, lan transport.LAN, cfg Config, tag string, subFirst, lateAttach bool) pair {
	t.Helper()
	ctx := waitCtx(t)
	var p pair
	var err error
	attachPub := func() { p.pubNode = joinNode(t, lan, "pub"+tag, cfg) }
	attachSub := func() { p.subNode = joinNode(t, lan, "sub"+tag, cfg) }
	publish := func() {
		if p.pub, err = p.pubNode.PublishObjectClass("p", "State"+tag); err != nil {
			t.Fatal(err)
		}
	}
	subscribe := func() {
		if p.sub, err = p.subNode.SubscribeObjectClass("s", "State"+tag, WithReliable(8)); err != nil {
			t.Fatal(err)
		}
	}
	steps := []func(){attachPub, publish, attachSub, subscribe}
	if subFirst {
		steps = []func(){attachSub, subscribe, attachPub, publish}
	}
	if !lateAttach {
		steps[1], steps[2] = steps[2], steps[1]
	}
	for _, step := range steps {
		step()
	}
	if err := p.sub.WaitMatchedContext(ctx); err != nil {
		t.Fatalf("subscription never matched: %v", err)
	}
	if err := p.pub.WaitChannelsContext(ctx, 1); err != nil {
		t.Fatalf("publication never gained its channel: %v", err)
	}
	return p
}

// TestJoinEitherOrder: a subscriber registered before its publisher and
// one registered after both match, on both kinds of segment, with no
// interval to help. Subscriber first is the late publisher's dynamic join:
// its PUBLICATION draws the SUBSCRIPTION again.
func TestJoinEitherOrder(t *testing.T) {
	for lanName, lan := range joinLANs(t) {
		for _, subFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/subscriberFirst=%v", lanName, subFirst), func(t *testing.T) {
				p := joinPair(t, lan, eventOnly(), fmt.Sprintf("-%v", subFirst), subFirst, false)
				roundTrip(t, waitCtx(t), p.pub, p.sub, 7)

				// Both CBs were on the segment throughout, so whether the late
				// side's datagram found the early side's entry is a race the
				// protocol wins either way; TestJoinDatagramCounts pins the
				// counts where the topology decides them.
				if got := p.subNode.Stats().BroadcastsSent.Value(); got < 1 || got > 2 {
					t.Errorf("subscriber sent %d SUBSCRIPTIONs, want 1 or 2", got)
				}
				if got := p.pubNode.Stats().SolicitsSent.Value(); got != 1 {
					t.Errorf("publisher sent %d PUBLICATIONs, want 1", got)
				}
			})
		}
	}
}

// TestJoinDatagramCounts: when a computer registers everything it has
// before the next one attaches, the datagrams of a join are counted by the
// order alone. Subscriber first: its SUBSCRIPTION found nobody, the late
// PUBLICATION draws one more. Publisher first: the PUBLICATION found nobody
// and the one SUBSCRIPTION is answered.
func TestJoinDatagramCounts(t *testing.T) {
	for _, subFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("subscriberFirst=%v", subFirst), func(t *testing.T) {
			p := joinPair(t, transport.NewMemLAN(), eventOnly(), "", subFirst, true)
			want := int64(1)
			if subFirst {
				want = 2
			}
			if got := p.subNode.Stats().BroadcastsSent.Value(); got != want {
				t.Errorf("subscriber sent %d SUBSCRIPTIONs, want %d", got, want)
			}
			if got := p.pubNode.Stats().SolicitsSent.Value(); got != 1 {
				t.Errorf("publisher sent %d PUBLICATIONs, want 1", got)
			}
		})
	}
}

// TestJoinPublicationReopened: a publication closed and opened again
// re-matches its subscriber, and NotifyC hands the publisher a token for
// each change of its channel set. The scoped BYE makes the subscription
// re-broadcast at once (to nobody); the new publication's solicit draws it
// again. Whichever of the two the subscriber's CB handles last finds the
// other done, so the order they arrive in does not matter.
func TestJoinPublicationReopened(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := joinNode(t, lan, "pub", eventOnly())
	subNode := joinNode(t, lan, "sub", eventOnly())

	sub, err := subNode.SubscribeObjectClass("s", "State", WithReliable(8))
	if err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		pub, err := pubNode.PublishObjectClass("p", "State")
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-pub.NotifyC():
		case <-ctx.Done():
			t.Fatalf("round %d: no token for the gained channel", round)
		}
		if n := pub.Channels(); n != 1 {
			t.Fatalf("round %d: token with %d channels, want 1", round, n)
		}
		if err := sub.WaitMatchedContext(ctx); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		roundTrip(t, ctx, pub, sub, float64(round))
		if err := pub.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJoinNotifyOnLoss: the token also comes when the channel set shrinks.
func TestJoinNotifyOnLoss(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := joinNode(t, lan, "pub", eventOnly())
	subNode := joinNode(t, lan, "sub", eventOnly())
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}
	for want := 1; want >= 0; want-- {
		select {
		case <-pub.NotifyC():
		case <-ctx.Done():
			t.Fatalf("no token for the change to %d channels", want)
		}
		if n := pub.Channels(); n != want {
			t.Fatalf("token with %d channels, want %d", n, want)
		}
		_ = sub.Close()
	}
}

// TestJoinMatchedSubscriberToldOverLink: a subscription already served by
// one publisher joins a late second one without a broadcast when its CB
// shares a link with the newcomer — the dist coordinator gaining a worker.
// The newcomer first subscribes to a class the subscriber's node publishes,
// which is what builds the link. With the clock never moving and the
// newcomer attached after the hub's own broadcast, nothing else can.
func TestJoinMatchedSubscriberToldOverLink(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	hub := joinNode(t, lan, "hub", eventOnly())

	down, err := hub.PublishObjectClass("hub", "Down")
	if err != nil {
		t.Fatal(err)
	}
	up, err := hub.SubscribeObjectClass("hub", "Up", WithReliable(8))
	if err != nil {
		t.Fatal(err)
	}
	// join attaches a computer after everything the hub has said, so the
	// hub's own SUBSCRIPTION is not what it is found by.
	join := func(node string, channels int) *Publication {
		t.Helper()
		b := joinNode(t, lan, node, eventOnly())
		in, err := b.SubscribeObjectClass(b.Node(), "Down")
		if err != nil {
			t.Fatal(err)
		}
		if err := in.WaitMatchedContext(ctx); err != nil {
			t.Fatalf("%s: Down never matched: %v", b.Node(), err)
		}
		out, err := b.PublishObjectClass(b.Node(), "Up")
		if err != nil {
			t.Fatal(err)
		}
		if err := out.WaitChannelsContext(ctx, 1); err != nil {
			t.Fatalf("%s: Up never gained the hub: %v", b.Node(), err)
		}
		if err := down.WaitChannelsContext(ctx, channels); err != nil {
			t.Fatal(err)
		}
		return out
	}
	join("first", 1) // the hub's Up is unmatched: it answers by broadcast
	before := hub.Stats().BroadcastsSent.Value()
	out := join("late", 2)
	roundTrip(t, ctx, out, up, 3)
	if got := hub.Stats().BroadcastsSent.Value(); got != before {
		t.Errorf("the matched subscription broadcast %d times to join the late publisher, want 0 (told over the link)", got-before)
	}
}

// TestJoinManyPublishersOneAnswer: a node registering several publishers
// of a class solicits once each, and a subscription answers that node
// once — the count is the topology's, not the timing's.
func TestJoinManyPublishersOneAnswer(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	subNode := joinNode(t, lan, "sub", eventOnly())
	sub, err := subNode.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}
	// Fence's solicit goes out last, so once it is answered the
	// subscriber's CB has handled every solicit before it.
	fence, err := subNode.SubscribeObjectClass("s", "Fence")
	if err != nil {
		t.Fatal(err)
	}
	pubNode := joinNode(t, lan, "pub", eventOnly())
	const publishers = 5
	for i := 0; i < publishers; i++ {
		if _, err := pubNode.PublishObjectClass(fmt.Sprintf("p%d", i), "State"); err != nil {
			t.Fatal(err)
		}
	}
	// Matched means the publisher's ACKNOWLEDGE came in over its link, so
	// the subscriber's CB knows that link by name from here on and answers
	// Fence's solicit over it: no datagram, whatever the timing.
	if err := sub.WaitMatchedContext(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := pubNode.PublishObjectClass("p", "Fence"); err != nil {
		t.Fatal(err)
	}
	if err := fence.WaitMatchedContext(ctx); err != nil {
		t.Fatal(err)
	}
	if got := pubNode.Stats().SolicitsSent.Value(); got != publishers+1 {
		t.Errorf("%d PUBLICATIONs, want %d", got, publishers+1)
	}
	if got := subNode.Stats().BroadcastsSent.Value(); got != 3 {
		t.Errorf("%d SUBSCRIPTIONs, want 3: two registrations and one answer to %d State solicits", got, publishers)
	}
}

// TestJoinRepairUnderLoss: on the wall clock, with a segment dropping most
// datagrams, the eager ones included, the repair periods still converge —
// in either order, over several loss patterns.
func TestJoinRepairUnderLoss(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, subFirst := range []bool{true, false} {
			t.Run(fmt.Sprintf("seed=%d/subscriberFirst=%v", seed, subFirst), func(t *testing.T) {
				lan := transport.NewMemLAN(transport.WithLoss(0.7), transport.WithSeed(seed))
				joinPair(t, lan, Config{}, "", subFirst, false)
				if lan.Dropped() == 0 {
					t.Log("the segment dropped nothing this time")
				}
			})
		}
	}
}

// TestJoinUnknownDatagramDropped: a datagram of a kind this build does not
// know — what PUBLICATION is to a build before it — one that is not a
// frame at all, and frames of kinds that have no business on the broadcast
// socket are all dropped one by one with no effect on the tables, the
// links or the counters, and the next real join goes through.
func TestJoinUnknownDatagramDropped(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := joinNode(t, lan, "pub", eventOnly())
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	subNode := joinNode(t, lan, "sub", eventOnly()) // after the solicit: the counts below are exact
	intruder, err := lan.Attach("intruder")
	if err != nil {
		t.Fatal(err)
	}
	defer intruder.Close()

	unknown, err := wire.Frame{Kind: wire.KindPublication, Node: "intruder", LP: "x", Class: "State"}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	unknown[3] = 0x7f // a kind no build has
	junk := [][]byte{unknown, []byte("not a frame"), nil}
	for _, f := range []wire.Frame{
		{Kind: wire.KindHeartbeat, Node: "intruder"},
		{Kind: wire.KindBye, Node: "pub"},
		{Kind: wire.KindAcknowledge, Phase: wire.AckSubscription, Node: "intruder", LP: "s", Class: "State", Addr: "mem://intruder"},
		{Kind: wire.KindUpdateAttrs, Channel: 1, Node: "intruder", Class: "State", Attrs: attrsWith(1)},
	} {
		b, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		junk = append(junk, b)
	}
	for _, b := range junk {
		if err := intruder.Broadcast(b); err != nil {
			t.Fatal(err)
		}
	}

	// The join queues behind the junk at both nodes, so once it is through
	// the junk has been handled.
	sub, err := subNode.SubscribeObjectClass("s", "State", WithReliable(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitMatchedContext(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pub.WaitChannelsContext(ctx, 1); err != nil {
		t.Fatal(err)
	}
	roundTrip(t, ctx, pub, sub, 1)
	for _, b := range []*Backbone{pubNode, subNode} {
		if down := b.Stats().LinksDown.Value(); down != 0 {
			t.Errorf("%s: %d links down, want 0", b.Node(), down)
		}
		pubs, subs := b.Tables()
		if len(pubs)+len(subs) != 1 {
			t.Errorf("%s: tables hold %d publications and %d subscriptions, want one row", b.Node(), len(pubs), len(subs))
		}
	}
	if got := pubNode.Stats().ChannelsUp.Value(); got != 1 {
		t.Errorf("publisher built %d channels, want 1", got)
	}
	if got := subNode.Stats().BroadcastsSent.Value(); got != 1 {
		t.Errorf("subscriber sent %d SUBSCRIPTIONs, want 1", got)
	}
	if got := sub.Pending(); got != 0 {
		t.Errorf("%d reflections pending after the one round trip: a junk UPDATE was delivered", got)
	}
}
