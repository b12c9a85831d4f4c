package wire

import (
	"bytes"
	"fmt"
	"testing"
)

// TestPoolDecoderNoAlias pins the ownership rule at the wire level, on a
// stream of frames read into one reused Frame: a Clone taken from a
// decoded frame, and an AttrSet moved out of one (the frame's storage
// going with it), must both survive every later frame; what the frame is
// left holding — nothing, or a set handed back — is what the next frame is
// read into, and storage handed back is reused, not reallocated.
func TestPoolDecoderNoAlias(t *testing.T) {
	const frames = 32
	payload := func(i int) string { return fmt.Sprintf("payload-%03d", i) }
	var framed []byte
	for i := range frames {
		a := AttrSet{}
		a.PutInt64(1, int64(i))
		a.PutString(2, payload(i))
		f := Frame{Kind: KindUpdateAttrs, Node: "n", Class: "C", Seq: uint32(i), Attrs: a}
		var err error
		if framed, err = f.AppendFramed(framed); err != nil {
			t.Fatalf("AppendFramed %d: %v", i, err)
		}
	}
	stream := bytes.NewReader(framed)

	dec := NewDecoder()
	var f Frame
	kept := make([]AttrSet, frames)
	var spare AttrSet // a set whose consumer is done with it
	for i := range frames {
		var handed *byte
		if i%4 == 3 { // frame i-1's storage goes back under the frame
			handed, f.Attrs = &spare.arena[0], spare
		}
		if err := dec.DecodeFrom(stream, &f); err != nil {
			t.Fatalf("DecodeFrom %d: %v", i, err)
		}
		if handed != nil && &f.Attrs.arena[0] != handed {
			t.Errorf("frame %d was not read into the storage handed back", i)
		}
		switch i % 4 {
		case 0:
			kept[i] = f.Attrs.Clone() // the frame keeps its storage and reuses it
		case 1, 3:
			kept[i], f.Attrs = f.Attrs, AttrSet{} // moved out for good
		case 2:
			spare, f.Attrs = f.Attrs, AttrSet{} // moved out, read, handed back next round
			kept[i] = spare.Clone()
		}
	}
	for i, c := range kept {
		n, ok := c.Int64(1)
		if !ok || n != int64(i) {
			t.Fatalf("frame %d: attr1 = %d,%v (storage reused under it)", i, n, ok)
		}
		s, ok := c.String(2)
		if !ok || s != payload(i) {
			t.Fatalf("frame %d: attr2 = %q,%v (storage reused under it)", i, s, ok)
		}
	}
}

// TestPoolGetPutCycle cycles one reused set through Reset and refill —
// what every owner-held scratch set is, the cod publisher's included — and
// checks each cycle encodes exactly as a fresh one (no stale attrs, no
// arena bleed-through), and a Clone taken before the Reset keeps its
// values however the set's storage is reused.
func TestPoolGetPutCycle(t *testing.T) {
	want := func() []byte {
		a := AttrSet{}
		a.PutFloat64(1, 2.5)
		f := Frame{Kind: KindUpdateAttrs, Node: "n", Attrs: a}
		b, _ := f.Encode()
		return b
	}()
	var a AttrSet
	for i := 0; i < 8; i++ {
		a.PutInt64(7, int64(i)) // dirty it with an unrelated attr
		a.PutString(2, "busy")
		clone := a.Clone()
		a.Reset()
		if a.Len() != 0 {
			t.Fatalf("cycle %d: a reset set holds %d attrs", i, a.Len())
		}
		a.PutFloat64(1, 2.5)
		got, err := Frame{Kind: KindUpdateAttrs, Node: "n", Attrs: a}.Encode()
		if err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cycle %d: reset set encodes differently\n got %x\nwant %x", i, got, want)
		}
		if v, ok := clone.Int64(7); !ok || v != int64(i) {
			t.Fatalf("cycle %d: clone reads attr7 = %d,%v after the reset", i, v, ok)
		}
		if _, ok := clone.Float64(1); ok {
			t.Fatalf("cycle %d: clone aliases the reset set's arena", i)
		}
		a.Reset()
	}
}
