package cb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"codsim/internal/transport"
	"codsim/internal/wire"
)

// fastConfig keeps protocol timers tight so tests run quickly.
func fastConfig() Config {
	return Config{
		BroadcastInterval: 5 * time.Millisecond,
		RefreshInterval:   30 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  80 * time.Millisecond,
	}
}

func newBackbone(t *testing.T, lan transport.LAN, node string) *Backbone {
	t.Helper()
	b, err := New(lan, node, fastConfig())
	if err != nil {
		t.Fatalf("New(%q): %v", node, err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return b
}

const waitLong = 3 * time.Second

// waitCtx bounds the blocking waits of one test. The deadline covers the
// whole test rather than one wait, hence the multiple of waitLong.
func waitCtx(t testing.TB) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 10*waitLong)
	t.Cleanup(cancel)
	return ctx
}

func attrsWith(val float64) wire.AttrSet {
	a := wire.AttrSet{}
	a.PutFloat64(1, val)
	return a
}

func TestLocalPubSub(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")

	pub, err := b.PublishObjectClass("dynamics", "CraneState")
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	sub, err := b.SubscribeObjectClass("visual", "CraneState")
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if !sub.Matched() {
		t.Fatal("local subscription not matched immediately")
	}

	if err := pub.Update(1.5, attrsWith(42)); err != nil {
		t.Fatalf("Update: %v", err)
	}
	r, err := sub.NextContext(ctx)
	if err != nil {
		t.Fatal("no reflection")
	}
	if r.Class != "CraneState" || r.PubLP != "dynamics" || r.PubNode != "solo" {
		t.Errorf("reflection meta = %+v", r)
	}
	if v, ok := r.Attrs.Float64(1); !ok || v != 42 {
		t.Errorf("attr = %v,%v", v, ok)
	}
	if r.Time != 1.5 {
		t.Errorf("Time = %v", r.Time)
	}
}

func TestLocalSubscribeBeforePublish(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")

	sub, err := b.SubscribeObjectClass("visual", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	if sub.Matched() {
		t.Fatal("matched before any publisher exists")
	}
	pub, err := b.PublishObjectClass("dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	if !sub.Matched() {
		t.Fatal("publisher registration did not match local subscriber")
	}
	if err := pub.Update(0, attrsWith(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.NextContext(ctx); err != nil {
		t.Fatal("no reflection after late publish")
	}
}

func TestRemotePubSub(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "dynamics-pc")
	subNode := newBackbone(t, lan, "display-pc")

	pub, err := pubNode.PublishObjectClass("dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("visual", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("virtual channel never established")
	}

	if err := pub.Update(2.25, attrsWith(3.5)); err != nil {
		t.Fatal(err)
	}
	r, err := sub.NextContext(ctx)
	if err != nil {
		t.Fatal("no reflection across the LAN")
	}
	if r.PubNode != "dynamics-pc" || r.Time != 2.25 {
		t.Errorf("reflection = %+v", r)
	}
	if v, _ := r.Attrs.Float64(1); v != 3.5 {
		t.Errorf("attr = %v", v)
	}
}

func TestRemotePublisherStartsLate(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	subNode := newBackbone(t, lan, "display-pc")

	sub, err := subNode.SubscribeObjectClass("visual", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // several unmatched broadcasts elapse

	pubNode := newBackbone(t, lan, "dynamics-pc")
	pub, err := pubNode.PublishObjectClass("dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("late publisher never matched (re-broadcast failed)")
	}
	if err := pub.Update(1, attrsWith(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.NextContext(ctx); err != nil {
		t.Fatal("no reflection from late publisher")
	}
}

func TestDynamicJoinExtraDisplay(t *testing.T) {
	ctx := waitCtx(t)
	// The paper's §2.3 claim: an extra display LP can be added without
	// restarting the system.
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "dynamics-pc")
	d1 := newBackbone(t, lan, "display-1")

	pub, err := pubNode.PublishObjectClass("dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	sub1, err := d1.SubscribeObjectClass("visual-1", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	if sub1.WaitMatchedContext(ctx) != nil {
		t.Fatal("first display not matched")
	}
	// Steady-state traffic flowing...
	if err := pub.Update(1, attrsWith(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sub1.NextContext(ctx); err != nil {
		t.Fatal("no traffic to display-1")
	}

	// Hot-add a second display node while the system runs.
	d2 := newBackbone(t, lan, "display-2")
	sub2, err := d2.SubscribeObjectClass("visual-2", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	if sub2.WaitMatchedContext(ctx) != nil {
		t.Fatal("hot-added display not matched")
	}
	if err := pub.Update(2, attrsWith(2)); err != nil {
		t.Fatal(err)
	}
	if _, err := sub2.NextContext(ctx); err != nil {
		t.Fatal("no traffic to hot-added display")
	}
	// The original display keeps receiving as well.
	if _, err := sub1.NextContext(ctx); err != nil {
		t.Fatal("display-1 stopped receiving after dynamic join")
	}
}

func TestFanOutOnePublisherManySubscribers(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	pub, err := pubNode.PublishObjectClass("dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}

	const n = 5
	subs := make([]*Subscription, n)
	for i := 0; i < n; i++ {
		node := newBackbone(t, lan, fmt.Sprintf("sub-%d", i))
		s, err := node.SubscribeObjectClass("lp", "CraneState")
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	for i, s := range subs {
		if s.WaitMatchedContext(ctx) != nil {
			t.Fatalf("subscriber %d unmatched", i)
		}
	}
	if err := pub.Update(9, attrsWith(99)); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		r, err := s.NextContext(ctx)
		if err != nil {
			t.Fatalf("subscriber %d got nothing", i)
		}
		if v, _ := r.Attrs.Float64(1); v != 99 {
			t.Errorf("subscriber %d attr = %v", i, v)
		}
	}
}

func TestMultiplePublishersSameClass(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	n1 := newBackbone(t, lan, "n1")
	n2 := newBackbone(t, lan, "n2")
	n3 := newBackbone(t, lan, "n3")

	p1, err := n1.PublishObjectClass("lp-a", "AudioEvent")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := n2.PublishObjectClass("lp-b", "AudioEvent")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := n3.SubscribeObjectClass("audio", "AudioEvent", WithQueue(16))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until both publishers' channels are established.
	bothUp := func() bool {
		n3.mu.Lock()
		defer n3.mu.Unlock()
		up := 0
		for _, ic := range sub.channels {
			if ic.established {
				up++
			}
		}
		return up >= 2
	}
	if err := n3.waitChange(ctx, bothUp); err != nil {
		t.Fatal("second publisher channel never built")
	}

	if err := p1.Update(1, attrsWith(1)); err != nil {
		t.Fatal(err)
	}
	if err := p2.Update(2, attrsWith(2)); err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for i := 0; i < 2; i++ {
		r, err := sub.NextContext(ctx)
		if err != nil {
			t.Fatal("missing reflection")
		}
		got[r.PubLP] = true
	}
	if !got["lp-a"] || !got["lp-b"] {
		t.Errorf("publishers seen = %v", got)
	}
}

func TestTwoLPsOnOneComputer(t *testing.T) {
	ctx := waitCtx(t)
	// §2.1: "One or many LPs can run on a computer."
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "shared-pc")

	pub, err := b.PublishObjectClass("scenario", "ScenarioState")
	if err != nil {
		t.Fatal(err)
	}
	subA, err := b.SubscribeObjectClass("instructor", "ScenarioState")
	if err != nil {
		t.Fatal(err)
	}
	subB, err := b.SubscribeObjectClass("audio", "ScenarioState")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Update(1, attrsWith(5)); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Subscription{subA, subB} {
		if _, err := s.NextContext(ctx); err != nil {
			t.Fatal("co-resident LP missed reflection")
		}
	}
}

func TestConflation(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")
	pub, err := b.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeObjectClass("s", "State", WithQueue(1), WithLatestValue())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := pub.Update(float64(i), attrsWith(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	r, ok := sub.Latest()
	if !ok {
		t.Fatal("no reflection")
	}
	if v, _ := r.Attrs.Float64(1); v != 10 {
		t.Errorf("conflated value = %v, want newest (10)", v)
	}
	if got := sub.Pending(); got != 0 {
		t.Errorf("pending after Latest = %d", got)
	}
	if b.Stats().Conflations.Value() == 0 {
		t.Error("conflation should count Conflations")
	}
	if b.Stats().MailboxDropped.Value() != 0 {
		t.Error("latest-value coalescing must not count as drops")
	}
	// The per-channel tally names the conflated channel.
	_, subs := b.Tables()
	if len(subs) != 1 || subs[0].Conflated == 0 || subs[0].Policy != "latest-value" {
		t.Errorf("Tables() sub row = %+v, want conflated latest-value row", subs)
	}
}

// TestRowTotalsSurviveChannelTeardown pins the lifetime accounting: the
// subscription row's delivered/dropped/conflated totals keep counting
// after the virtual channel (and its ByChannel entry) is torn down, so a
// post-sweep telemetry scrape still sees what a finished sweep delivered.
func TestRowTotalsSurviveChannelTeardown(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")
	pub, err := b.PublishObjectClass("p", "Ev")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeObjectClass("s", "Ev", WithQueue(2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := pub.Update(float64(i), attrsWith(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	_, subs := b.Tables()
	if len(subs) != 1 {
		t.Fatalf("sub table rows = %d", len(subs))
	}
	row := subs[0]
	if len(row.ByChannel) != 0 {
		t.Errorf("ByChannel after teardown = %+v, want empty (channel forgotten)", row.ByChannel)
	}
	if row.Delivered != 5 || row.Dropped != 3 {
		t.Errorf("row totals after teardown = delivered %d dropped %d, want 5/3", row.Delivered, row.Dropped)
	}
	_ = sub
}

func TestQueueOverflowDropsOldest(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")
	pub, err := b.PublishObjectClass("p", "Ev")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeObjectClass("s", "Ev", WithQueue(4))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		if err := pub.Update(float64(i), attrsWith(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Only the newest 4 (7,8,9,10) survive.
	want := []float64{7, 8, 9, 10}
	for _, w := range want {
		r, ok := sub.Poll()
		if !ok {
			t.Fatalf("missing reflection %v", w)
		}
		if v, _ := r.Attrs.Float64(1); v != w {
			t.Errorf("got %v, want %v", v, w)
		}
	}
	if _, ok := sub.Poll(); ok {
		t.Error("queue had extra entries")
	}
}

func TestSequenceNumbersMonotone(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")

	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State", WithQueue(64))
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("not matched")
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := pub.Update(float64(i), attrsWith(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	var lastSeq uint32
	for i := 0; i < n; i++ {
		r, err := sub.NextContext(ctx)
		if err != nil {
			t.Fatalf("missing reflection %d", i)
		}
		if r.Seq <= lastSeq {
			t.Fatalf("sequence not monotone: %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
	}
}

func TestRegistrationValidation(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")

	if _, err := b.PublishObjectClass("", "C"); !errors.Is(err, ErrUnknownLP) {
		t.Errorf("empty LP: %v", err)
	}
	if _, err := b.PublishObjectClass("lp", ""); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("empty class: %v", err)
	}
	if _, err := b.SubscribeObjectClass("", "C"); !errors.Is(err, ErrUnknownLP) {
		t.Errorf("empty LP: %v", err)
	}
	if _, err := b.SubscribeObjectClass("lp", ""); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("empty class: %v", err)
	}
	if _, err := b.PublishObjectClass("lp", "C"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.PublishObjectClass("lp", "C"); !errors.Is(err, ErrDuplicateLP) {
		t.Errorf("duplicate publish: %v", err)
	}
	if _, err := b.SubscribeObjectClass("lp", "C"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SubscribeObjectClass("lp", "C"); !errors.Is(err, ErrDuplicateLP) {
		t.Errorf("duplicate subscribe: %v", err)
	}
}

func TestTables(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")
	if _, err := b.PublishObjectClass("dyn", "CraneState"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.SubscribeObjectClass("vis", "CraneState"); err != nil {
		t.Fatal(err)
	}
	pubs, subs := b.Tables()
	if len(pubs) != 1 || pubs[0].LP != "dyn" || pubs[0].Class != "CraneState" || pubs[0].Channels != 1 {
		t.Errorf("pub table = %+v", pubs)
	}
	if len(subs) != 1 || subs[0].LP != "vis" || subs[0].Channels != 1 {
		t.Errorf("sub table = %+v", subs)
	}
}

func TestPublicationCloseStopsTraffic(t *testing.T) {
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
	if err := pub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Update(1, attrsWith(1)); !errors.Is(err, ErrHandleClosed) {
		t.Errorf("Update after close = %v", err)
	}
	if sub.Matched() {
		t.Error("subscription still matched after sole publisher closed")
	}
	if err := pub.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestSubscriptionCloseStopsDelivery(t *testing.T) {
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
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pub.Update(1, attrsWith(1)); err != nil {
		t.Fatal(err) // publishing into the void is fine
	}
	if _, ok := sub.Poll(); ok {
		t.Error("closed subscription still buffering")
	}
	if _, err := sub.NextContext(waitCtx(t)); !errors.Is(err, ErrHandleClosed) {
		t.Errorf("NextContext on closed subscription = %v, want ErrHandleClosed", err)
	}
	if err := sub.Close(); err != nil {
		t.Errorf("double close = %v", err)
	}
}

func TestBackboneCloseIdempotent(t *testing.T) {
	lan := transport.NewMemLAN()
	b, err := New(lan, "solo", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Errorf("second close = %v", err)
	}
	if _, err := b.PublishObjectClass("p", "C"); !errors.Is(err, ErrClosed) {
		t.Errorf("publish after close = %v", err)
	}
	if _, err := b.SubscribeObjectClass("s", "C"); !errors.Is(err, ErrClosed) {
		t.Errorf("subscribe after close = %v", err)
	}
}

func TestPublisherNodeDeathRecovery(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	subNode := newBackbone(t, lan, "display")
	sub, err := subNode.SubscribeObjectClass("visual", "CraneState")
	if err != nil {
		t.Fatal(err)
	}

	pubNode1, err := New(lan, "dyn-1", fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	pub1, err := pubNode1.PublishObjectClass("dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("initial match failed")
	}
	if err := pub1.Update(1, attrsWith(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.NextContext(ctx); err != nil {
		t.Fatal("no initial traffic")
	}

	// Kill the publisher node (whole backbone goes away: BYE or timeout).
	if err := pubNode1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := subNode.waitChange(ctx, func() bool { return !sub.Matched() }); err != nil {
		t.Fatal("subscription never noticed publisher death")
	}

	// A replacement publisher node appears; the subscriber's ongoing
	// broadcasts must find it.
	pubNode2 := newBackbone(t, lan, "dyn-2")
	pub2, err := pubNode2.PublishObjectClass("dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("replacement publisher never matched")
	}
	if err := pub2.Update(2, attrsWith(2)); err != nil {
		t.Fatal(err)
	}
	r, err := sub.NextContext(ctx)
	if err != nil {
		t.Fatal("no traffic from replacement publisher")
	}
	if r.PubNode != "dyn-2" {
		t.Errorf("traffic from %q, want dyn-2", r.PubNode)
	}
}

func TestLossyLANStillConverges(t *testing.T) {
	ctx := waitCtx(t)
	// 40% datagram loss: the periodic re-broadcast must still converge.
	lan := transport.NewMemLAN(transport.WithLoss(0.4), transport.WithSeed(99))
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")

	if _, err := pubNode.PublishObjectClass("p", "State"); err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("never converged under 40% loss")
	}
}

func TestEstablishLatencyRecorded(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")
	if _, err := pubNode.PublishObjectClass("p", "State"); err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State")
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("not matched")
	}
	if subNode.Stats().EstablishLatency.Count() != 1 {
		t.Errorf("EstablishLatency count = %d", subNode.Stats().EstablishLatency.Count())
	}
	if subNode.Stats().ChannelsUp.Value() == 0 && pubNode.Stats().ChannelsUp.Value() == 0 {
		t.Error("no ChannelsUp recorded")
	}
}

func TestConcurrentPublishers(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo")
	sub, err := b.SubscribeObjectClass("s", "State", WithQueue(4096))
	if err != nil {
		t.Fatal(err)
	}
	const (
		goroutines = 8
		perG       = 100
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		pub, err := b.PublishObjectClass(fmt.Sprintf("p%d", g), "State")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(pub *Publication) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				_ = pub.Update(float64(i), attrsWith(float64(i)))
			}
		}(pub)
	}
	wg.Wait()
	var count int
	for {
		if _, ok := sub.Poll(); !ok {
			break
		}
		count++
	}
	if count != goroutines*perG {
		t.Errorf("received %d, want %d", count, goroutines*perG)
	}
}

func TestUDPLANBackbone(t *testing.T) {
	ctx := waitCtx(t)
	// The whole protocol over real sockets.
	lan, err := transport.NewUDPLAN("127.0.0.1", 39500, 4)
	if err != nil {
		t.Fatal(err)
	}
	pubNode := newBackbone(t, lan, "pub")
	subNode := newBackbone(t, lan, "sub")

	pub, err := pubNode.PublishObjectClass("dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("visual", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("no channel over real UDP/TCP")
	}
	if err := pub.Update(3.5, attrsWith(8)); err != nil {
		t.Fatal(err)
	}
	r, err := sub.NextContext(ctx)
	if err != nil {
		t.Fatal("no reflection over real sockets")
	}
	if v, _ := r.Attrs.Float64(1); v != 8 {
		t.Errorf("attr = %v", v)
	}
}
