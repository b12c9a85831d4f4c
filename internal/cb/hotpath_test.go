package cb

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"codsim/internal/clock"
	"codsim/internal/transport"
	"codsim/internal/wire"
)

// TestOversizedUpdateReachesNobody: an update too large for a frame fails
// with wire.ErrTooLarge before any channel is touched — the local
// subscriber gets as little as the remote one — and costs no sequence
// number on either channel.
func TestOversizedUpdateReachesNobody(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubBB := newBackbone(t, lan, "pub-pc")
	subBB := newBackbone(t, lan, "sub-pc")
	pub, err := pubBB.PublishObjectClass("p", "Blob")
	if err != nil {
		t.Fatal(err)
	}
	local, err := pubBB.SubscribeObjectClass("near", "Blob", WithQueue(8))
	if err != nil {
		t.Fatal(err)
	}
	remote, err := subBB.SubscribeObjectClass("far", "Blob", WithQueue(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := remote.WaitMatchedContext(ctx); err != nil {
		t.Fatal("remote subscription never matched")
	}
	if err := pub.WaitChannelsContext(ctx, 2); err != nil {
		t.Fatal("publisher never saw both channels")
	}

	expect := func(wantSeq uint32, wantVal float64) {
		t.Helper()
		for name, sub := range map[string]*Subscription{"local": local, "remote": remote} {
			r, err := sub.NextContext(ctx)
			if err != nil {
				t.Fatalf("%s subscriber: %v", name, err)
			}
			if v, _ := r.Attrs.Float64(1); r.Seq != wantSeq || v != wantVal {
				t.Errorf("%s subscriber got seq %d value %v, want seq %d value %v", name, r.Seq, v, wantSeq, wantVal)
			}
		}
	}
	if err := pub.Update(1, attrsWith(1)); err != nil {
		t.Fatal(err)
	}
	expect(1, 1)

	var big wire.AttrSet
	big.PutBytes(1, make([]byte, wire.MaxFrameSize))
	routed, err := pub.UpdateRouted(2, big)
	if !errors.Is(err, wire.ErrTooLarge) || routed != 0 {
		t.Fatalf("oversized update: routed %d, err %v; want 0 and wire.ErrTooLarge", routed, err)
	}

	if err := pub.Update(3, attrsWith(3)); err != nil {
		t.Fatal(err)
	}
	expect(2, 3) // the very next reflection on both, carrying the next seq
	if n := local.Pending() + remote.Pending(); n != 0 {
		t.Errorf("%d reflections left over: the oversized update was delivered somewhere", n)
	}
}

// TestRecycledStorageNeverShared streams frames whose two attributes both
// name the frame, to a consumer that releases most reflections and holds
// on to the rest, across a link and in-process. Storage handed back must
// only ever come out again rewritten: every reflection polled is
// self-consistent and newer than the last, no two live reflections share
// bytes, and the held ones still read what they carried when hundreds of
// recycled frames have passed. Under LatestValue with a shallow mailbox
// the publisher runs flat out, so most reflections are conflated away
// unreleased and the mailbox gives their storage back itself. Run with
// -race: a released arena rewritten while someone still reads it is a data
// race before it is a wrong value.
func TestRecycledStorageNeverShared(t *testing.T) {
	cases := []struct {
		name   string
		opts   []SubscribeOption
		frames int
	}{
		{"reliable", []SubscribeOption{WithReliable(64)}, 5000},
		{"latest-value", []SubscribeOption{WithLatestValue(), WithQueue(4)}, 50000},
	}
	for _, tc := range cases {
		for _, path := range paths {
			name := tc.name // the link path's subtests keep their first names
			if path.local {
				name = path.name + "-" + tc.name
			}
			t.Run(name, func(t *testing.T) { testRecycledStorageNeverShared(t, path.local, tc.opts, tc.frames) })
		}
	}
}

func testRecycledStorageNeverShared(t *testing.T, local bool, opts []SubscribeOption, frames int) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubBB := newBackbone(t, lan, "pub-pc")
	subBB := subscriberNode(t, lan, pubBB, local, "sub-pc")
	pub, err := pubBB.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subBB.SubscribeObjectClass("s", "State", opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitMatchedContext(ctx); err != nil {
		t.Fatal("subscription never matched")
	}
	if err := pub.WaitChannelsContext(ctx, 1); err != nil {
		t.Fatal("publisher never linked")
	}

	label := func(i int64) string { return fmt.Sprintf("frame-%07d", i) }
	pubErr := make(chan error, 1)
	go func() {
		var a wire.AttrSet
		for i := int64(0); i < int64(frames); i++ {
			a.Reset()
			a.PutInt64(1, i)
			a.PutString(2, label(i))
			if err := pub.UpdateContext(ctx, float64(i), a); err != nil {
				pubErr <- err
				return
			}
		}
		pubErr <- nil
	}()

	type held struct {
		r Reflection
		n int64
	}
	var keep []held
	newest := int64(-1)
	for polled := 0; newest != int64(frames)-1; polled++ {
		r, err := sub.NextContext(ctx)
		if err != nil {
			t.Fatalf("after frame %d: %v", newest, err)
		}
		n, ok := r.Attrs.Int64(1)
		s, _ := r.Attrs.String(2)
		if !ok || s != label(n) || n <= newest {
			t.Fatalf("polled a reflection reading (%d, %q) after frame %d: recycled storage observed", n, s, newest)
		}
		newest = n
		if polled%16 != 0 {
			r.Release()
			if r.Attrs.Len() != 0 {
				t.Fatal("a released reflection still has attributes")
			}
			continue
		}
		mine, _ := r.Attrs.Bytes(2)
		for _, h := range keep {
			if theirs, _ := h.r.Attrs.Bytes(2); &mine[0] == &theirs[0] {
				t.Fatalf("frames %d and %d are both live and share storage", n, h.n)
			}
		}
		keep = append(keep, held{r, n})
	}
	if err := <-pubErr; err != nil {
		t.Fatalf("publisher: %v", err)
	}
	for _, h := range keep {
		n, _ := h.r.Attrs.Int64(1)
		s, _ := h.r.Attrs.String(2)
		if n != h.n || s != label(h.n) {
			t.Errorf("held frame %d now reads (%d, %q): its storage was recycled under it", h.n, n, s)
		}
	}
	if sub.Policy() == wire.PolicyLatestValue && subBB.Stats().Conflations.Value() == 0 {
		t.Error("no reflection was conflated: the mailbox's own release path went untested")
	}
}

// pollCond polls cond once per millisecond until it holds (nil) or ctx is
// done. For what has no edge to wait on — a link accepted, named, or its
// frame counter moved — and only in tests.
func pollCond(ctx context.Context, cond func() bool) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for !cond() {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
	return nil
}

// liveLinks lists b's links, named or pending.
func liveLinks(b *Backbone) []*peerLink {
	b.mu.Lock()
	defer b.mu.Unlock()
	var ls []*peerLink
	for l := range b.links {
		ls = append(ls, l)
	}
	return ls
}

// TestLinkLivenessUnderInjectedClock moves the backbone's clock one
// heartbeat period at a time and reads each sweep off the wire: a live
// link's beacon, or EOF once the sweep has reaped it. A link is dated by
// the sweep that finds its frame count moved, so: a link carrying a frame
// per period is never reaped; a link silent since time s survives every
// sweep up to s + heartbeatTimeout and falls to the first one after it;
// and a frame that lands just after a sweep is dated by the next one — up
// to one period late, never early.
func TestLinkLivenessUnderInjectedClock(t *testing.T) {
	const interval = heartbeatInterval
	ctx := waitCtx(t)
	clk := clock.NewManual()
	lan := transport.NewMemLAN()
	b := joinNode(t, lan, "server", Config{Clock: clk})
	if err := clk.WaitTimers(ctx, 1); err != nil {
		t.Fatal(err)
	}

	dial := func(name string) transport.Conn {
		t.Helper()
		ifc, err := lan.Attach(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = ifc.Close() })
		conn, err := ifc.Dial(b.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = conn.Close() })
		return conn
	}
	talkerConn, muteConn := dial("talker"), dial("mute")
	if pollCond(ctx, func() bool { return len(liveLinks(b)) == 2 }) != nil {
		t.Fatal("the two links were never accepted")
	}

	// say sends one frame from the talker and waits until the read loop
	// has counted it.
	var talker *peerLink
	said := uint64(0)
	say := func() {
		t.Helper()
		frame, err := wire.Frame{Kind: wire.KindHeartbeat, Node: "talker"}.AppendFramed(nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := talkerConn.Write(frame); err != nil {
			t.Fatal(err)
		}
		said++
		if talker == nil {
			if pollCond(ctx, func() bool { talker = b.linkFor("talker"); return talker != nil }) != nil {
				t.Fatal("the talker's link never took its name")
			}
		}
		if pollCond(ctx, func() bool { return talker.recv.Load() == said }) != nil {
			t.Fatalf("frame %d never counted", said)
		}
	}
	// beaten reads the next frame the backbone sends on conn: true for the
	// sweep's beacon, false for the EOF of a reaped link.
	beaten := func(conn transport.Conn) func() bool {
		br, dec := bufio.NewReader(conn), wire.NewDecoder()
		return func() bool {
			var f wire.Frame
			return dec.DecodeFrom(br, &f) == nil
		}
	}
	talkerBeaten, muteBeaten := beaten(talkerConn), beaten(muteConn)
	// moveTo advances the clock to at; the timer loop sweeps at every
	// multiple of the period.
	elapsed := time.Duration(0)
	moveTo := func(at time.Duration) {
		clk.Advance(at - elapsed)
		elapsed = at
	}

	// One frame per period for well over the timeout: never reaped. The
	// mute link, silent since 0, lives through the sweep at exactly the
	// timeout and falls to the next.
	muteAlive := true
	for k := time.Duration(1); k <= 10; k++ {
		say()
		moveTo(k * interval)
		if !talkerBeaten() {
			t.Fatalf("sweep at %v reaped a link that carried a frame in every period", k*interval)
		}
		if !muteAlive {
			continue
		}
		want := k*interval <= heartbeatTimeout
		if muteAlive = muteBeaten(); muteAlive != want {
			t.Fatalf("sweep at %v: silent link alive=%v, want %v", k*interval, muteAlive, want)
		}
	}
	if muteAlive {
		t.Fatal("the silent link outlived every sweep")
	}

	// The talker's last dated frame is the one the sweep at 10 periods
	// counted. One more lands just after that sweep: the sweep at 11 dates
	// it 11, so the link outlives 11 + timeout and falls to the sweep after.
	moveTo(10*interval + time.Millisecond)
	say()
	for k := time.Duration(11); k <= 16; k++ {
		moveTo(k * interval)
		if want := k*interval <= 11*interval+heartbeatTimeout; talkerBeaten() != want {
			t.Fatalf("sweep at %v: link silent since just after 10 periods alive=%v, want %v", k*interval, !want, want)
		}
	}
}
