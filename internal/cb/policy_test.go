package cb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"codsim/internal/transport"
)

// waitChannels blocks until the publication routes into n channels.
func waitChannels(t *testing.T, pub *Publication, n int) {
	t.Helper()
	ctx := waitCtx(t)
	if pub.WaitChannelsContext(ctx, n) != nil {
		t.Fatalf("publication never reached %d channel(s)", n)
	}
}

// TestLatestValueStalledSubscriberConflates pins the conflating contract
// across a remote channel: a subscriber that stops polling keeps bounded
// mailbox memory — one slot per channel at depth — and resumes on the
// newest reflection per publisher, with the losses counted as
// conflations, not drops.
func TestLatestValueStalledSubscriberConflates(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	// Two publisher NODES: virtual channels are deduplicated per node, so
	// per-channel conflation needs the publishers on separate computers.
	pubNodeA := newBackbone(t, lan, "pub-pc-a")
	pubNodeB := newBackbone(t, lan, "pub-pc-b")
	subNode := newBackbone(t, lan, "sub-pc")

	pubA, err := pubNodeA.PublishObjectClass("lpA", "State")
	if err != nil {
		t.Fatal(err)
	}
	pubB, err := pubNodeB.PublishObjectClass("lpB", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State", WithQueue(4), WithLatestValue())
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("never matched")
	}
	waitChannels(t, pubA, 1)
	waitChannels(t, pubB, 1)

	// The subscriber is stalled: push far more state than the mailbox
	// holds, from two publishers (two virtual channels).
	const rounds = 200
	for i := 1; i <= rounds; i++ {
		if err := pubA.Update(float64(i), attrsWith(float64(i))); err != nil {
			t.Fatalf("pubA update %d: %v", i, err)
		}
		if err := pubB.Update(float64(i), attrsWith(float64(-i))); err != nil {
			t.Fatalf("pubB update %d: %v", i, err)
		}
	}

	// Remote delivery is asynchronous; wait for the pipeline to drain
	// into the mailbox before judging.
	_ = pollCond(ctx, func() bool { return subNode.Stats().ReflectsDelivered.Value() >= 2*rounds })
	if pend := sub.Pending(); pend > 4 {
		t.Fatalf("stalled latest-value mailbox holds %d > depth 4", pend)
	}
	if subNode.Stats().Conflations.Value() == 0 {
		t.Error("no conflations counted")
	}
	if subNode.Stats().MailboxDropped.Value() != 0 {
		t.Error("latest-value stall counted drops")
	}

	// Resume: the newest value per channel must be present.
	got := map[float64]bool{}
	for {
		r, ok := sub.Poll()
		if !ok {
			break
		}
		if v, ok := r.Attrs.Float64(1); ok {
			got[v] = true
		}
	}
	if !got[rounds] || !got[-rounds] {
		t.Fatalf("resumed without the newest per channel: %v", got)
	}

	// The per-channel tallies name both conflated channels.
	_, subs := subNode.Tables()
	if len(subs) != 1 {
		t.Fatalf("sub table rows = %d", len(subs))
	}
	row := subs[0]
	if row.Policy != "latest-value" || row.Conflated == 0 || row.Dropped != 0 {
		t.Errorf("row = %+v, want conflated latest-value", row)
	}
	if len(row.ByChannel) != 2 {
		t.Errorf("ByChannel = %+v, want 2 channels", row.ByChannel)
	}
	for _, tally := range row.ByChannel {
		if tally.Peer == "" || tally.Conflated == 0 {
			t.Errorf("channel tally %+v, want conflations attributed to a named peer", tally)
		}
	}
}

// TestReliableBackpressureStallsAndDrains pins the credit window end to
// end: a stalled subscriber lets the publisher send exactly the window,
// then Update reports ErrWindowFull (nothing dropped); draining the
// mailbox grants credits and the publisher resumes, with every update
// arriving exactly once in order.
func TestReliableBackpressureStallsAndDrains(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub-pc")
	subNode := newBackbone(t, lan, "sub-pc")

	pub, err := pubNode.PublishObjectClass("p", "Jobs")
	if err != nil {
		t.Fatal(err)
	}
	const window = 8
	sub, err := subNode.SubscribeObjectClass("s", "Jobs", WithReliable(window))
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("never matched")
	}
	waitChannels(t, pub, 1)

	// Fill the window against a stalled subscriber.
	sent := 0
	deadline := time.Now().Add(waitLong)
	for {
		err := pub.Update(float64(sent), attrsWith(float64(sent+1)))
		if errors.Is(err, ErrWindowFull) {
			break
		}
		if err != nil {
			t.Fatalf("update %d: %v", sent, err)
		}
		sent++
		if sent > window {
			t.Fatalf("sent %d > window %d without a stall", sent, window)
		}
		if time.Now().After(deadline) {
			t.Fatal("never hit the window")
		}
	}
	if sent != window {
		t.Fatalf("window admitted %d, want %d", sent, window)
	}
	if pubNode.Stats().CreditStalls.Value() == 0 {
		t.Error("stall not counted")
	}

	// Everything sent sits in the mailbox — nothing was dropped.
	_ = pollCond(ctx, func() bool { return sub.Pending() >= window })
	if pend := sub.Pending(); pend != window {
		t.Fatalf("pending %d, want the full window %d", pend, window)
	}

	// Drain two: credits flow back (quarter-window batches), reopening
	// the window for more sends.
	for i := 0; i < 2; i++ {
		r, err := sub.NextContext(ctx)
		if err != nil {
			t.Fatal("drain lost a reflection")
		}
		if v, _ := r.Attrs.Float64(1); v != float64(i+1) {
			t.Fatalf("drained %v, want %d (in order)", v, i+1)
		}
	}
	var reopened error
	if pollCond(ctx, func() bool { reopened = pub.Update(99, attrsWith(99)); return !errors.Is(reopened, ErrWindowFull) }) != nil {
		t.Fatal("window never reopened after consumption")
	}
	if reopened != nil {
		t.Fatal(reopened)
	}

	// Full drain: everything that was accepted arrives exactly once, in
	// sequence order.
	want := []float64{3, 4, 5, 6, 7, 8, 99}
	for _, w := range want {
		r, err := sub.NextContext(ctx)
		if err != nil {
			t.Fatalf("reflection %v never arrived", w)
		}
		if v, _ := r.Attrs.Float64(1); v != w {
			t.Fatalf("got %v, want %v", v, w)
		}
	}
	if pend := sub.Pending(); pend != 0 {
		t.Fatalf("trailing pending %d", pend)
	}
}

// TestReliableUpdateContextBlocksUntilConsumed: the blocking publish form
// parks the producer mid-stall and resumes it as the subscriber consumes;
// a canceled context releases it with ctx.Err().
func TestReliableUpdateContextBlocksUntilConsumed(t *testing.T) {
	lan := transport.NewMemLAN()
	b := newBackbone(t, lan, "solo") // local fast path exercises the same window
	pub, err := b.PublishObjectClass("p", "Jobs")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeObjectClass("s", "Jobs", WithReliable(1)) // window=1 edge
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Update(0, attrsWith(1)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Update(0, attrsWith(2)); !errors.Is(err, ErrWindowFull) {
		t.Fatalf("window=1 second send err = %v, want ErrWindowFull", err)
	}

	unblocked := make(chan error, 1)
	go func() {
		unblocked <- pub.UpdateContext(context.Background(), 0, attrsWith(2))
	}()
	select {
	case err := <-unblocked:
		t.Fatalf("UpdateContext returned %v before consumption", err)
	case <-time.After(50 * time.Millisecond):
	}
	if r, ok := sub.Poll(); !ok {
		t.Fatal("first update missing")
	} else if v, _ := r.Attrs.Float64(1); v != 1 {
		t.Fatalf("first = %v", v)
	}
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatalf("unblocked with %v", err)
		}
	case <-time.After(waitLong):
		t.Fatal("consumption never released the publisher")
	}
	if r, ok := sub.Poll(); !ok {
		t.Fatal("second update missing")
	} else if v, _ := r.Attrs.Float64(1); v != 2 {
		t.Fatalf("second = %v", v)
	}

	// Cancellation mid-stall.
	if err := pub.Update(0, attrsWith(3)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	stalls := b.Stats().CreditStalls.Value()
	bound := waitCtx(t)
	go func() {
		// Cancel once the send has met the full window, parked or about to.
		_ = pollCond(bound, func() bool { return b.Stats().CreditStalls.Value() > stalls })
		cancel()
	}()
	if err := pub.UpdateContext(ctx, 0, attrsWith(4)); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled stall returned %v", err)
	}
}

// TestStalledPublicationHoldsOnlyItself: an UpdateContext parked on a full
// window holds its own Publication and no more. Another LP's publication
// of the same class shares the channel, and its non-blocking Update
// reports the full window at once instead of waiting behind the stall.
func TestStalledPublicationHoldsOnlyItself(t *testing.T) {
	ctx := waitCtx(t)
	b := newBackbone(t, transport.NewMemLAN(), "solo")
	p, err := b.PublishObjectClass("p", "Jobs")
	if err != nil {
		t.Fatal(err)
	}
	q, err := b.PublishObjectClass("q", "Jobs")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeObjectClass("s", "Jobs", WithReliable(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Update(0, attrsWith(1)); err != nil {
		t.Fatal(err)
	}
	stalled := make(chan error, 1)
	go func() { stalled <- p.UpdateContext(ctx, 0, attrsWith(2)) }()
	if pollCond(ctx, func() bool { return b.Stats().CreditStalls.Value() == 1 }) != nil {
		t.Fatal("UpdateContext never met the full window")
	}

	probed := make(chan error, 1)
	go func() { probed <- q.Update(0, attrsWith(3)) }()
	select {
	case err := <-probed:
		if !errors.Is(err, ErrWindowFull) {
			t.Fatalf("the other publication's Update returned %v, want ErrWindowFull", err)
		}
	case <-time.After(waitLong):
		t.Fatal("the other publication's Update waited behind the stalled one")
	}
	select {
	case err := <-stalled:
		t.Fatalf("UpdateContext returned %v before consumption", err)
	default:
	}

	for want := 1.0; want <= 2; want++ {
		r, err := sub.NextContext(ctx)
		if err != nil {
			t.Fatalf("update %v never arrived: %v", want, err)
		}
		if v, _ := r.Attrs.Float64(1); v != want || r.PubLP != "p" {
			t.Fatalf("got %v from %q, want %v from p", v, r.PubLP, want)
		}
	}
	if err := <-stalled; err != nil {
		t.Fatalf("UpdateContext: %v", err)
	}
}

// TestReliableSubscriberDeathReleasesPublisher: a subscriber that dies
// mid-stall (its registration closes) must release the blocked publisher
// rather than wedge it forever.
func TestReliableSubscriberDeathReleasesPublisher(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub-pc")
	subNode := newBackbone(t, lan, "sub-pc")
	pub, err := pubNode.PublishObjectClass("p", "Jobs")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "Jobs", WithReliable(1))
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("never matched")
	}
	waitChannels(t, pub, 1)
	if err := pub.Update(0, attrsWith(1)); err != nil {
		t.Fatal(err)
	}

	unblocked := make(chan error, 1)
	go func() {
		unblocked <- pub.UpdateContext(context.Background(), 0, attrsWith(2))
	}()
	select {
	case err := <-unblocked:
		t.Fatalf("UpdateContext returned %v before the stall", err)
	case <-time.After(50 * time.Millisecond):
	}
	_ = sub.Close() // scoped BYE → publisher drops the channel and wakes
	select {
	case err := <-unblocked:
		if err != nil {
			t.Fatalf("released with %v", err)
		}
	case <-time.After(waitLong):
		t.Fatal("subscriber death left the publisher stalled")
	}
}

// TestLegacyHandshakeGetsDropOldest pins the compatibility rule: a
// policy-less CHANNEL CONNECTION — what every pre-policy build sends, and
// exactly what a default drop-oldest subscription sends today — yields
// the legacy drop-oldest behavior on the publisher: no stall, no
// conflation, oldest dropped at the full mailbox.
func TestLegacyHandshakeGetsDropOldest(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "pub-pc")
	subNode := newBackbone(t, lan, "sub-pc")
	pub, err := pubNode.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subNode.SubscribeObjectClass("s", "State", WithQueue(4))
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("never matched")
	}
	waitChannels(t, pub, 1)

	const rounds = 64
	for i := 1; i <= rounds; i++ {
		// A legacy publisher never observes backpressure.
		if err := pub.Update(float64(i), attrsWith(float64(i))); err != nil {
			t.Fatalf("update %d: %v", i, err)
		}
	}
	_ = pollCond(ctx, func() bool { return subNode.Stats().ReflectsDelivered.Value() >= rounds })
	if got := pubNode.Stats().CreditStalls.Value(); got != 0 {
		t.Errorf("legacy channel stalled %d times", got)
	}
	if got := subNode.Stats().Conflations.Value(); got != 0 {
		t.Errorf("legacy channel conflated %d times", got)
	}
	if subNode.Stats().MailboxDropped.Value() == 0 {
		t.Error("overflow did not drop-oldest")
	}
	// The survivors are the newest depth-many, in order.
	for want := float64(rounds - 3); want <= rounds; want++ {
		r, ok := sub.Poll()
		if !ok {
			t.Fatalf("reflection %v missing", want)
		}
		if v, _ := r.Attrs.Float64(1); v != want {
			t.Fatalf("got %v, want %v", v, want)
		}
	}
}

// TestSlowSubscriberMemLANSmoke is the acceptance scenario run by
// scripts/check.sh: a MemLAN federation with a subscriber stalled for
// 2 s. The LatestValue channel keeps bounded memory and resumes on the
// newest state; the Reliable publisher blocks instead of dropping, and
// after the stall every reliable message is accounted for.
func TestSlowSubscriberMemLANSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("2 s stall")
	}
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubNode := newBackbone(t, lan, "sim-pc")
	subNode := newBackbone(t, lan, "display-pc")

	statePub, err := pubNode.PublishObjectClass("dynamics", "fom.CraneState")
	if err != nil {
		t.Fatal(err)
	}
	cmdPub, err := pubNode.PublishObjectClass("instructor", "fom.InstructorCmd")
	if err != nil {
		t.Fatal(err)
	}
	stateSub, err := subNode.SubscribeObjectClass("display", "fom.CraneState", WithQueue(8), WithLatestValue())
	if err != nil {
		t.Fatal(err)
	}
	cmdSub, err := subNode.SubscribeObjectClass("display", "fom.InstructorCmd", WithReliable(16))
	if err != nil {
		t.Fatal(err)
	}
	if stateSub.WaitMatchedContext(ctx) != nil || cmdSub.WaitMatchedContext(ctx) != nil {
		t.Fatal("never matched")
	}
	waitChannels(t, statePub, 1)
	waitChannels(t, cmdPub, 1)

	// 2 s of 60 Hz state plus a command stream into a stalled subscriber.
	var wg sync.WaitGroup
	wg.Add(2)
	stateSent, cmdSent := 0, 0
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Second / 60)
		defer tick.Stop()
		for start := time.Now(); time.Since(start) < 2*time.Second; {
			<-tick.C
			stateSent++
			if err := statePub.Update(float64(stateSent), attrsWith(float64(stateSent))); err != nil {
				t.Errorf("state update: %v", err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		// The blocking publisher: it stalls on the full window (no error,
		// no drop) until the 2 s stall budget expires. A canceled stall
		// never delivered, so cmdSent counts exactly the sent updates.
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		for {
			err := cmdPub.UpdateContext(ctx, float64(cmdSent+1), attrsWith(float64(cmdSent+1)))
			if errors.Is(err, context.DeadlineExceeded) {
				return // parked on the window for the rest of the stall: correct
			}
			if err != nil {
				t.Errorf("cmd update: %v", err)
				return
			}
			cmdSent++
		}
	}()
	wg.Wait()

	if pend := stateSub.Pending(); pend > 8 {
		t.Fatalf("stalled state mailbox grew to %d", pend)
	}
	if pubNode.Stats().CreditStalls.Value() == 0 {
		t.Error("the reliable publisher never felt backpressure")
	}
	// The final state frame may still be crossing the (asynchronous)
	// link; Latest converges on it within the settle window.
	var newest float64
	_ = pollCond(ctx, func() bool {
		if r, ok := stateSub.Latest(); ok {
			newest, _ = r.Attrs.Float64(1)
		}
		return newest == float64(stateSent)
	})
	if newest != float64(stateSent) {
		t.Fatalf("resumed on state %v, want newest %d", newest, stateSent)
	}
	// Reliable: window-many commands in flight at most; drain them all
	// in order and the publisher's outstanding count reconciles exactly.
	got := 0
	for {
		quiet, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		r, err := cmdSub.NextContext(quiet)
		cancel()
		if err != nil {
			break
		}
		got++
		if v, _ := r.Attrs.Float64(1); v != float64(got) {
			t.Fatalf("command %d arrived as %v (loss or reorder)", got, v)
		}
	}
	if got != cmdSent {
		t.Fatalf("drained %d commands, sent %d — reliable channel lost data", got, cmdSent)
	}
	t.Logf("stall survived: %d states conflated into 8 slots, %d commands delivered losslessly (stalls=%d)",
		stateSent, cmdSent, pubNode.Stats().CreditStalls.Value())
}
