package cb

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"codsim/internal/transport"
	"codsim/internal/wire"
)

// paths are the two ways an update reaches a subscriber: across a link to
// another backbone, or in-process on the publisher's own. Both hand their
// storage out and take it back by the same rule (Reflection.Release).
var paths = []struct {
	name  string
	local bool
}{{"link", false}, {"in-process", true}}

// subscriberNode is the backbone a test's subscriptions register on: the
// publisher's own for the in-process path, a new node for the link path.
func subscriberNode(t *testing.T, lan transport.LAN, pubBB *Backbone, local bool, node string) *Backbone {
	if local {
		return pubBB
	}
	return newBackbone(t, lan, node)
}

// TestPoolNoAlias is the ownership test for both delivery paths: a
// reflection owns its attribute storage, so one that is never released
// must keep its bytes whatever happens after it — thousands of later
// updates through the same source, another consumer of the same stream
// releasing every reflection it takes (that storage is what the link
// reads, and the in-process path copies, later updates into), and the
// publisher rewriting its scratch set between Updates. Every 512th frame
// is larger than the link's read buffer and than any storage released so
// far, and is followed by small ones again. The holder retains everything
// and reads it all back at the end. Run with -race and -count=100 to shake
// out reuse races:
//
//	go test -race -run Pool -count=100 ./internal/cb/
func TestPoolNoAlias(t *testing.T) {
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) { testPoolNoAlias(t, path.local) })
	}
}

func testPoolNoAlias(t *testing.T, local bool) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubBB := newBackbone(t, lan, "pub-pc")
	pub, err := pubBB.PublishObjectClass("dynamics", "CraneState")
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	var subs [2]*Subscription // 0 holds, 1 releases
	for i, lp := range []string{"hold", "release"} {
		sub, err := subscriberNode(t, lan, pubBB, local, lp+"-pc").SubscribeObjectClass(lp, "CraneState", WithReliable(64))
		if err != nil {
			t.Fatalf("Subscribe: %v", err)
		}
		if sub.WaitMatchedContext(ctx) != nil {
			t.Fatal("subscription never matched")
		}
		subs[i] = sub
	}
	if pub.WaitChannelsContext(ctx, 2) != nil {
		t.Fatal("publisher never saw both channels")
	}

	const frames = 4096
	label := func(i int) string { return fmt.Sprintf("frame-%04d", i) }
	blob := func(i int) []byte {
		n := 16
		if i%512 == 511 {
			n = 3*linkReadBuffer + i
		}
		return bytes.Repeat([]byte{byte(i)}, n)
	}
	// Publish from a reused scratch AttrSet, as cod.Pub does: the set is
	// rewritten between Updates, so any retained alias of it would be
	// visibly corrupted.
	var scratch wire.AttrSet
	held := make([]Reflection, 0, frames)
	for i := 0; i < frames; i++ {
		scratch.Reset()
		scratch.PutInt64(1, int64(i))
		scratch.PutString(2, label(i))
		scratch.PutBytes(3, blob(i))
		if err := pub.UpdateContext(ctx, float64(i), scratch); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
		for who, sub := range subs {
			r, err := sub.NextContext(ctx)
			if err != nil {
				t.Fatalf("no reflection for frame %d", i)
			}
			if who == 0 {
				held = append(held, r)
				continue
			}
			if n, _ := r.Attrs.Int64(1); n != int64(i) {
				t.Fatalf("the releasing consumer read frame %d as %d", i, n)
			}
			r.Release()
		}
	}

	for i, r := range held {
		n, ok := r.Attrs.Int64(1)
		if !ok || n != int64(i) {
			t.Fatalf("held frame %d: attr1 = %d,%v (storage reused under it)", i, n, ok)
		}
		s, ok := r.Attrs.String(2)
		if !ok || s != label(i) {
			t.Fatalf("held frame %d: attr2 = %q,%v (storage reused under it)", i, s, ok)
		}
		b, ok := r.Attrs.Bytes(3)
		if !ok || !bytes.Equal(b, blob(i)) {
			t.Fatalf("held frame %d: attr3 is %d bytes of %v… (storage reused under it)", i, len(b), b[:min(len(b), 4)])
		}
	}
}

// mallocs is the process's allocation count so far. The ownership tests
// divide its growth by the frames streamed; this package's tests do not
// run in parallel, and what the backbones' timers allocate meanwhile is
// a few dozen objects.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// TestConflatedStorageGoesBack: a LatestValue mailbox that nobody polls
// conflates nearly every reflection away unseen, and hands each one's
// storage back itself, so the link reads the whole stream into a handful
// of bodies: what the subscriber side allocates does not grow with the
// frames published.
func TestConflatedStorageGoesBack(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubBB := newBackbone(t, lan, "pub-pc")
	subBB := newBackbone(t, lan, "sub-pc")
	pub, err := pubBB.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := subBB.SubscribeObjectClass("s", "State", WithLatestValue(), WithQueue(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitMatchedContext(ctx); err != nil {
		t.Fatal("subscription never matched")
	}
	if err := pub.WaitChannelsContext(ctx, 1); err != nil {
		t.Fatal("publisher never linked")
	}

	const frames = 20000
	stream := func(from, to int) {
		t.Helper()
		var a wire.AttrSet
		for i := from; i < to; i++ {
			a.Reset()
			a.PutInt64(1, int64(i))
			a.PutInt64(2, ^int64(i))
			if err := pub.Update(float64(i), a); err != nil {
				t.Fatalf("Update %d: %v", i, err)
			}
		}
		arrived := func() bool { return subBB.Stats().ReflectsDelivered.Value() == int64(to) }
		if pollCond(ctx, arrived) != nil {
			t.Fatalf("%d of %d frames arrived", subBB.Stats().ReflectsDelivered.Value(), to)
		}
	}
	stream(0, 100) // the mailbox fills and the first bodies start to circulate
	before := mallocs()
	stream(100, frames)
	perFrame := float64(mallocs()-before) / (frames - 100)
	// A body that did not come back, and its ref table, would be two.
	if perFrame > 0.1 {
		t.Errorf("%.2f allocations per conflated frame: discarded reflections do not give their storage back", perFrame)
	}
	if got := subBB.Stats().Conflations.Value(); got != frames-4 {
		t.Errorf("%d conflations, want %d", got, frames-4)
	}
	for i := frames - 4; i < frames; i++ {
		r, ok := sub.Poll()
		if n, _ := r.Attrs.Int64(1); !ok || n != int64(i) {
			t.Fatalf("buffered reflection reads frame %d,%v, want %d", n, ok, i)
		}
		if n, _ := r.Attrs.Int64(2); n != ^int64(i) {
			t.Fatalf("frame %d carries %d for its complement", i, n)
		}
	}
}

// TestConsumerThatNeverReleases: Release is optional. A consumer that never
// calls it sees every frame intact and costs the link two allocations a
// frame — the body the frame is read into and its ref table, both sized to
// that frame — and nothing else; one that releases costs none.
func TestConsumerThatNeverReleases(t *testing.T) {
	for _, release := range []bool{false, true} {
		t.Run(fmt.Sprintf("release=%v", release), func(t *testing.T) {
			ctx := waitCtx(t)
			lan := transport.NewMemLAN()
			pubBB := newBackbone(t, lan, "pub-pc")
			subBB := newBackbone(t, lan, "sub-pc")
			pub, err := pubBB.PublishObjectClass("p", "State")
			if err != nil {
				t.Fatal(err)
			}
			// Drop-oldest, one frame in flight: no credit traffic to count.
			sub, err := subBB.SubscribeObjectClass("s", "State", WithQueue(8))
			if err != nil {
				t.Fatal(err)
			}
			if err := sub.WaitMatchedContext(ctx); err != nil {
				t.Fatal("subscription never matched")
			}
			if err := pub.WaitChannelsContext(ctx, 1); err != nil {
				t.Fatal("publisher never linked")
			}
			const frames = 5000
			var a wire.AttrSet
			var before uint64
			for i := 0; i < frames; i++ {
				if i == 100 { // channels, rings and free lists are warm
					before = mallocs()
				}
				a.Reset()
				a.PutInt64(1, int64(i))
				a.PutFloat64(2, float64(i)/2)
				if err := pub.Update(float64(i), a); err != nil {
					t.Fatalf("Update %d: %v", i, err)
				}
				r, err := sub.NextContext(ctx)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				n, _ := r.Attrs.Int64(1)
				x, _ := r.Attrs.Float64(2)
				if n != int64(i) || x != float64(i)/2 {
					t.Fatalf("frame %d arrived as (%d, %v)", i, n, x)
				}
				if release {
					r.Release()
				}
			}
			perFrame := float64(mallocs()-before) / (frames - 100)
			want := 2.05
			if release {
				want = 0.05
			}
			if perFrame > want {
				t.Errorf("%.2f allocations per frame, want at most %.2f", perFrame, want)
			}
		})
	}
}

// TestPoolAttrSetReuse round-trips the link's free list: a released
// reflection's storage goes back to the link it arrived on, the next frame
// is read into it, and that frame starts empty — none of the released
// frame's attrs — while a clone taken before the release keeps its values
// and shares nothing with the reused storage.
func TestPoolAttrSetReuse(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pub, err := newBackbone(t, lan, "pub-pc").PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	subBB := newBackbone(t, lan, "sub-pc")
	sub, err := subBB.SubscribeObjectClass("s", "State", WithReliable(8))
	if err != nil {
		t.Fatal(err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("subscription never matched")
	}
	if pub.WaitChannelsContext(ctx, 1) != nil {
		t.Fatal("publisher never linked")
	}
	freeLen := func(s *attrStore) int {
		s.mu.Lock()
		defer s.mu.Unlock()
		return len(s.free)
	}

	var a wire.AttrSet
	a.PutFloat64(1, 3.5)
	a.PutString(2, "busy")
	if err := pub.UpdateContext(ctx, 0, a); err != nil {
		t.Fatal(err)
	}
	r, err := sub.NextContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	l := r.store
	if l == nil || l == &subBB.local {
		t.Fatal("the reflection did not cross a link")
	}
	clone := r.Attrs.Clone()
	r.Release()
	if r.Attrs.Len() != 0 || r.store != nil {
		t.Fatalf("a released reflection still holds %d attrs", r.Attrs.Len())
	}
	if n := freeLen(l); n != 1 {
		t.Fatalf("the link holds %d released sets, want 1", n)
	}

	a.Reset()
	a.PutInt64(9, 42)
	if err := pub.UpdateContext(ctx, 1, a); err != nil {
		t.Fatal(err)
	}
	r, err = sub.NextContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if n := freeLen(l); n != 0 {
		t.Fatalf("the next frame was not read into the released set: %d still free", n)
	}
	if r.Attrs.Len() != 1 {
		t.Fatalf("the reused set holds %d attrs, want 1", r.Attrs.Len())
	}
	if v, ok := r.Attrs.Int64(9); !ok || v != 42 {
		t.Fatalf("the reused set reads attr9 = %d,%v", v, ok)
	}
	if _, ok := r.Attrs.Float64(1); ok {
		t.Fatal("the reused set still carries the released frame's attr1")
	}
	if v, ok := clone.Float64(1); !ok || v != 3.5 {
		t.Fatalf("clone corrupted by the reuse: attr1 = %v,%v", v, ok)
	}
	if s, ok := clone.String(2); !ok || s != "busy" {
		t.Fatalf("clone corrupted by the reuse: attr2 = %q,%v", s, ok)
	}
	if v, ok := clone.Int64(9); ok {
		t.Fatalf("clone aliases the reused storage: attr9 = %d", v)
	}
	r.Release()
}

// TestInProcessStorageOwnsItsCopy: Update never retains the set it is
// given, so an in-process subscriber reads what was published even after
// the publisher has rewritten its one set for later updates, and a
// subscriber that releases what it takes costs nothing a frame, one that
// does not the two allocations of its copy.
func TestInProcessStorageOwnsItsCopy(t *testing.T) {
	ctx := waitCtx(t)
	b := newBackbone(t, transport.NewMemLAN(), "solo")
	pub, err := b.PublishObjectClass("p", "State")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := b.SubscribeObjectClass("s", "State", WithReliable(8))
	if err != nil {
		t.Fatal(err)
	}
	var set wire.AttrSet
	for i, word := range []string{"one", "two", "three"} {
		set.Reset()
		set.PutInt64(1, int64(i))
		set.PutString(2, word)
		if err := pub.Update(float64(i), set); err != nil {
			t.Fatal(err)
		}
	}
	set.Reset()
	set.PutString(2, "overwritten")
	for i, word := range []string{"one", "two", "three"} {
		r, err := sub.NextContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := r.Attrs.Int64(1)
		s, _ := r.Attrs.String(2)
		if n != int64(i) || s != word {
			t.Errorf("reflection %d reads (%d, %q): it shares the publisher's set", i, n, s)
		}
		r.Release()
	}

	hop := func(release bool) func() {
		return func() {
			if err := pub.Update(0, set); err != nil {
				t.Fatal(err)
			}
			r, err := sub.NextContext(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if release {
				r.Release()
			}
		}
	}
	if n := testing.AllocsPerRun(1000, hop(true)); n != 0 {
		t.Errorf("a released in-process reflection costs %v allocations a frame, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, hop(false)); n > 2 {
		t.Errorf("an unreleased in-process reflection costs %v allocations a frame, want at most 2", n)
	}
}
