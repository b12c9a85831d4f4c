package cb

import (
	"fmt"
	"testing"

	"codsim/internal/transport"
	"codsim/internal/wire"
)

// TestPoolNoAlias is the aliasing property test for the pooled wire path:
// reflections handed to a subscriber must never share memory with the
// pooled encode buffers, the read loop's reused decoder arena, or the
// publisher's (possibly pooled) attr scratch. It retains every decoded
// AttrSet while traffic keeps flowing — overwriting any shared buffer many
// times over — then asserts the retained values still read back exactly.
// Run with -race and -count=100 to shake out reuse races:
//
//	go test -race -run Pool -count=100 ./internal/cb/
func TestPoolNoAlias(t *testing.T) {
	ctx := waitCtx(t)
	lan := transport.NewMemLAN()
	pubBB := newBackbone(t, lan, "pub-pc")
	subBB := newBackbone(t, lan, "sub-pc")

	pub, err := pubBB.PublishObjectClass("dynamics", "CraneState")
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	sub, err := subBB.SubscribeObjectClass("visual", "CraneState", WithReliable(64))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	if sub.WaitMatchedContext(ctx) != nil {
		t.Fatal("subscription never matched")
	}

	const frames = 64
	// Publish from a reused scratch AttrSet — the cod SDK's pooled pattern:
	// the set is mutated in place between Updates, so any retained alias of
	// it would be visibly corrupted.
	scratch := wire.NewAttrSet(3)
	got := make([]Reflection, 0, frames)
	for i := 0; i < frames; i++ {
		scratch.PutInt64(1, int64(i))
		scratch.PutFloat64(2, float64(i)+0.5)
		scratch.PutString(3, fmt.Sprintf("frame-%03d", i))
		if err := pub.Update(float64(i), scratch); err != nil {
			t.Fatalf("Update %d: %v", i, err)
		}
		r, err := sub.NextContext(ctx)
		if err != nil {
			t.Fatalf("no reflection for frame %d", i)
		}
		got = append(got, r) // retain: decoder/pool reuse must not touch it
	}

	// All buffers have been reacquired and overwritten dozens of times by
	// now; every retained reflection must still carry its original values.
	for i, r := range got {
		n, ok := r.Attrs.Int64(1)
		if !ok || n != int64(i) {
			t.Fatalf("retained frame %d: attr1 = %d,%v (pooled buffer aliased)", i, n, ok)
		}
		f, ok := r.Attrs.Float64(2)
		if !ok || f != float64(i)+0.5 {
			t.Fatalf("retained frame %d: attr2 = %v,%v (pooled buffer aliased)", i, f, ok)
		}
		s, ok := r.Attrs.String(3)
		if !ok || s != fmt.Sprintf("frame-%03d", i) {
			t.Fatalf("retained frame %d: attr3 = %q,%v (pooled buffer aliased)", i, s, ok)
		}
	}
}

// TestPoolAttrSetReuse round-trips the wire pool itself: acquire, fill,
// release, reacquire, and confirm the recycled set starts empty with its
// arena intact for reuse.
func TestPoolAttrSetReuse(t *testing.T) {
	a := wire.GetAttrSet()
	a.PutFloat64(1, 3.5)
	a.PutString(2, "busy")
	clone := a.Clone()
	wire.PutAttrSet(a)

	b := wire.GetAttrSet()
	defer wire.PutAttrSet(b)
	if b.Len() != 0 {
		t.Fatalf("reacquired AttrSet not reset: %d attrs", b.Len())
	}
	// The clone taken before release must be untouched by the recycling.
	if v, ok := clone.Float64(1); !ok || v != 3.5 {
		t.Fatalf("clone corrupted by pool recycle: %v,%v", v, ok)
	}
	b.PutInt64(9, 42)
	if v, ok := clone.Int64(9); ok {
		t.Fatalf("clone aliases recycled arena: attr9 = %d", v)
	}
}
