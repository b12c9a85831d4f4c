package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

func TestNewLayoutRefuses(t *testing.T) {
	for name, tc := range map[string]struct {
		ids   []AttrID
		sizes []int
	}{
		"descending IDs":    {[]AttrID{1, 3, 2}, []int{8, 8, 8}},
		"repeated ID":       {[]AttrID{1, 2, 2}, []int{8, 1, 1}},
		"0x80-byte value":   {[]AttrID{1, 2}, []int{8, 0x80}},
		"300-byte value":    {[]AttrID{1}, []int{300}},
		"negative size":     {[]AttrID{1}, []int{-1}},
		"a size per ID, +1": {[]AttrID{1}, []int{8, 8}},
	} {
		if _, err := NewLayout(tc.ids, tc.sizes); err == nil {
			t.Errorf("%s: NewLayout(%v, %v) accepted", name, tc.ids, tc.sizes)
		}
	}
	for _, tc := range []struct {
		ids   []AttrID
		sizes []int
	}{
		{nil, nil},
		{[]AttrID{0, 1, 0xffff}, []int{0, 0x7f, 8}},
	} {
		if _, err := NewLayout(tc.ids, tc.sizes); err != nil {
			t.Errorf("NewLayout(%v, %v): %v", tc.ids, tc.sizes, err)
		}
	}
}

// testLayout is a float64, a bool and an int64 under IDs 1, 2 and 3.
func testLayout(t *testing.T) Layout {
	t.Helper()
	l, err := NewLayout([]AttrID{1, 2, 3}, []int{8, 1, 8})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// putPrefix builds testLayout's records the way a Put-by-Put encoder does,
// then a string after them.
func putPrefix(a *AttrSet) {
	a.PutFloat64(1, 1.5)
	a.PutBool(2, true)
	a.PutInt64(3, -7)
	a.PutString(4, "tail")
}

// decoded decodes a frame carrying a's attributes, in place where they are
// canonical.
func decoded(t *testing.T, a AttrSet) AttrSet {
	t.Helper()
	enc, err := Frame{Kind: KindUpdateAttrs, Node: "n", Attrs: a}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	f, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	return f.Attrs
}

// TestMatchLayout: a set opening with the layout's records matches however
// it was made, and then every value at its offset is the one Bytes reads;
// a set differing in one record's ID, size or offset, or shorter than the
// layout, does not.
func TestMatchLayout(t *testing.T) {
	l := testLayout(t)
	var built AttrSet
	putPrefix(&built)
	inPlace := decoded(t, built)
	if !inPlace.borrowed || inPlace.sec == 0 {
		t.Fatal("the built set's frame was not indexed in place")
	}
	copied, err := Decode(hostileAttrs(1, bytes.Repeat([]byte{1}, 8), 2, []byte{1}, 3, make([]byte, 8), 9, []byte("x"), 4, []byte("tail")))
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]AttrSet{"built": built, "indexed in place": inPlace, "copied out": copied.Attrs} {
		sec, ok := a.MatchLayout(&l)
		if !ok {
			t.Errorf("%s: does not match", name)
			continue
		}
		for i, r := range l.refs {
			v, _ := a.Bytes(r.id)
			if at := l.Offset(i); !bytes.Equal(sec[at:at+int(r.end-r.start)], v) {
				t.Errorf("%s: the value at offset %d is %x, Bytes(%d) reads %x", name, at, sec[at:at+int(r.end-r.start)], r.id, v)
			}
		}
	}
	var empty Layout
	if _, ok := (&AttrSet{}).MatchLayout(&empty); !ok {
		t.Error("the empty layout does not match the empty set")
	}

	var otherID, otherSize, moved, short AttrSet
	otherID.PutFloat64(1, 1.5)
	otherID.PutBool(2, true)
	otherID.PutInt64(4, -7)
	otherSize.PutFloat64(1, 1.5)
	otherSize.PutBool(2, true)
	otherSize.PutUint32(3, 7)
	putPrefix(&moved)
	moved.PutBytes(2, []byte{1, 2}) // moves to the tail...
	moved.PutBool(2, true)          // ...and stays there at its own size again
	short.PutFloat64(1, 1.5)
	short.PutBool(2, true)
	repeated, err := Decode(hostileAttrs(1, make([]byte, 8), 2, []byte{}, 3, make([]byte, 8), 2, []byte{1}))
	if err != nil {
		t.Fatal(err)
	}
	for name, a := range map[string]AttrSet{
		"another ID":                   otherID,
		"another size":                 otherSize,
		"a value at another offset":    moved,
		"a repeated ID, copied out":    repeated.Attrs,
		"shorter than the layout":      short,
		"shorter, indexed in place":    decoded(t, short),
		"another ID, indexed in place": decoded(t, otherID),
	} {
		if _, ok := a.MatchLayout(&l); ok {
			t.Errorf("%s: matches", name)
		}
	}
}

// TestFillLayout: filling a set and storing the values at their offsets
// encodes to the bytes the same values Put one by one encode to, whatever
// the set held before — and a set borrowing the buffer it was decoded from
// leaves that buffer as it was.
func TestFillLayout(t *testing.T) {
	l := testLayout(t)
	var want AttrSet
	putPrefix(&want)

	var stale AttrSet
	stale.PutString(9, "stale")
	stale.PutBool(1, false)
	var built AttrSet
	putPrefix(&built)
	enc, err := Frame{Kind: KindUpdateAttrs, Node: "n", Attrs: built}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	pristine := bytes.Clone(enc)
	borrowed, err := Decode(enc)
	if err != nil || !borrowed.Attrs.borrowed {
		t.Fatalf("the frame was not indexed in place (%v)", err)
	}

	for name, a := range map[string]*AttrSet{"zero": {}, "stale": &stale, "borrowed": &borrowed.Attrs} {
		sec := a.FillLayout(&l)
		for i := range sec {
			sec[i] ^= 0xff // whatever is written here must land in the set, not in enc
		}
		copy(sec, l.tmpl)
		binary.BigEndian.PutUint64(sec[l.Offset(0):], 0x3ff8000000000000) // 1.5
		sec[l.Offset(1)] = 1
		binary.BigEndian.PutUint64(sec[l.Offset(2):], uint64(0xfffffffffffffff9)) // -7
		a.PutString(4, "tail")
		if got := a.append(nil); !bytes.Equal(got, want.append(nil)) {
			t.Errorf("%s: filled set encodes to\n %x\nPut one by one\n %x", name, got, want.append(nil))
		}
		if v, ok := a.Int64(3); !ok || v != -7 {
			t.Errorf("%s: Int64(3) = %d, %v", name, v, ok)
		}
		if !bytes.Equal(enc, pristine) {
			t.Fatalf("%s: filling a set wrote into the buffer a set was decoded from", name)
		}
	}
}
