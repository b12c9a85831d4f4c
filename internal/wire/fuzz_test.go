package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"maps"
	"math"
	"slices"
	"testing"
)

// attrModel is the reference an AttrSet is held to: the map the historical
// encoder was built on.
type attrModel map[AttrID][]byte

func modelOf(a AttrSet) attrModel {
	m := make(attrModel, a.Len())
	for id, v := range a.All() {
		m[id] = bytes.Clone(v)
	}
	return m
}

// sortedSet builds the model's set the way every in-tree encoder does,
// ascending, so its encoding is the canonical one.
func (m attrModel) sortedSet() AttrSet {
	var a AttrSet
	for _, id := range slices.Sorted(maps.Keys(m)) {
		a.PutBytes(id, m[id])
	}
	return a
}

// check holds a to the model: same IDs, same bytes through every reader,
// typed readers answering exactly when the size fits, and an encoding
// byte-identical to the ascending build's.
func (m attrModel) check(t *testing.T, a AttrSet) {
	t.Helper()
	if a.Len() != len(m) {
		t.Fatalf("Len = %d, model has %d", a.Len(), len(m))
	}
	if got := modelOf(a); !maps.EqualFunc(got, m, bytes.Equal) {
		t.Fatalf("All() = %v, model %v", got, m)
	}
	for id, want := range m {
		got, ok := a.Bytes(id)
		if !ok || !bytes.Equal(got, want) {
			t.Fatalf("Bytes(%d) = %x,%v, model %x", id, got, ok, want)
		}
		if _, ok := a.Float64(id); ok != (len(want) == 8) {
			t.Fatalf("Float64(%d) ok=%v on a %d-byte value", id, ok, len(want))
		}
		if _, ok := a.Uint32(id); ok != (len(want) == 4) {
			t.Fatalf("Uint32(%d) ok=%v on a %d-byte value", id, ok, len(want))
		}
		if _, ok := a.Bool(id); ok != (len(want) == 1) {
			t.Fatalf("Bool(%d) ok=%v on a %d-byte value", id, ok, len(want))
		}
		if _, _, _, ok := a.Vec3(id); ok != (len(want) == 24) {
			t.Fatalf("Vec3(%d) ok=%v on a %d-byte value", id, ok, len(want))
		}
	}
	if got, want := a.append(nil), m.sortedSet().append(nil); !bytes.Equal(got, want) {
		t.Fatalf("encoding diverges from the ascending build\n got %x\nwant %x", got, want)
	}
}

// FuzzAttrSetOps runs a Put/Delete/get script against the map model. Each
// op is three bytes: opcode, ID selector, value length. The selector's
// high bit spreads IDs far apart (sparse sets miss the dense index), its
// low bits collide often (repeated Puts, last wins), and scripts are free
// to descend (the unsorted flag and the encode-time sort).
func FuzzAttrSetOps(f *testing.F) {
	f.Add([]byte{0, 1, 8, 0, 2, 4, 0, 3, 1})                 // ascending: the append fast path
	f.Add([]byte{0, 9, 8, 0, 5, 8, 0, 2, 8, 0, 1, 8})        // descending
	f.Add([]byte{0, 4, 8, 0, 4, 3, 0, 4, 8, 0, 4, 0})        // one ID rewritten at several sizes
	f.Add([]byte{0, 0x81, 8, 0, 0x85, 8, 0, 0x83, 4})        // sparse, out of order
	f.Add([]byte{0, 1, 8, 0, 2, 8, 1, 1, 0, 0, 3, 8, 2, 1})  // delete the head: dense probe must miss
	f.Add([]byte{0, 3, 8, 0, 1, 8, 0, 5, 8, 1, 3, 0, 0, 3})  // Put into an unsorted set after a delete
	f.Add([]byte{0, 2, 24, 0, 3, 1, 0, 4, 4, 2, 2, 2, 3, 2}) // typed sizes, mis-sized reads
	f.Add([]byte{2, 1, 0, 1, 1, 0})                          // the empty set a PUBLICATION carries: read and delete, nothing put
	f.Fuzz(func(t *testing.T, script []byte) {
		var a AttrSet
		m := attrModel{}
		for ; len(script) >= 3; script = script[3:] {
			op, sel, n := script[0]%3, script[1], int(script[2])%40
			id := AttrID(sel & 0x0f)
			if sel&0x80 != 0 {
				id = 1000 + AttrID(sel&0x7f)*37
			}
			switch op {
			case 0:
				v := bytes.Repeat([]byte{sel ^ script[2]}, n)
				a.PutBytes(id, v)
				m[id] = v
			case 1:
				a.Delete(id)
				delete(m, id)
			case 2:
				got, ok := a.Bytes(id)
				want, present := m[id]
				if ok != present || !bytes.Equal(got, want) {
					t.Fatalf("Bytes(%d) = %x,%v, model %x,%v", id, got, ok, want, present)
				}
			}
		}
		m.check(t, a)
		m.check(t, a.Clone())
		var into AttrSet
		into.PutBytes(99, []byte("stale"))
		a.CloneInto(&into)
		m.check(t, into)

		var back AttrSet
		rest, err := readAttrSetInto(&back, a.append(nil))
		if err != nil || len(rest) != 0 {
			t.Fatalf("decoding the set's own encoding: %v, %d bytes left", err, len(rest))
		}
		m.check(t, back)
	})
}

// hostileAttrs encodes (id, value) pairs exactly as given — duplicates,
// any order — which no in-tree encoder would emit.
func hostileAttrs(pairs ...any) []byte {
	f := Frame{Kind: KindUpdateAttrs, Node: "n"}
	b, _ := f.Encode()
	b = b[:len(b)-1] // drop the empty set's count
	b = binary.AppendUvarint(b, uint64(len(pairs)/2))
	for i := 0; i < len(pairs); i += 2 {
		b = binary.BigEndian.AppendUint16(b, uint16(pairs[i].(int)))
		v := pairs[i+1].([]byte)
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	return b
}

// TestHostileFrameDuplicateIDsLastWins: a frame repeating an ID decodes to
// the last value, and descending IDs decode to a set that still encodes
// ascending.
func TestHostileFrameDuplicateIDsLastWins(t *testing.T) {
	f, err := Decode(hostileAttrs(7, []byte("first"), 3, []byte{1}, 7, []byte("last"), 3, []byte{2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	attrModel{7: []byte("last"), 3: {2, 2}}.check(t, f.Attrs)
	if !f.Attrs.unsorted {
		t.Error("descending IDs did not flag the set unsorted")
	}
}

// FuzzDecodeFrame feeds the frame decoder arbitrary bytes: it must never
// panic, and whatever it accepts must re-encode to bytes that decode to
// the same frame — through the allocating Decode and through a Decoder
// reusing its frame, which the link runs.
func FuzzDecodeFrame(f *testing.F) {
	for _, tc := range goldenCases() {
		raw, err := hex.DecodeString(tc.hex)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
	}
	f.Add(hostileAttrs(7, []byte("first"), 3, []byte{1}, 7, []byte("last")))
	f.Add(hostileAttrs(1000, []byte{}, 2, bytes.Repeat([]byte{9}, 300)))
	// The datagram-only solicit, whole and cut short, and the same bytes
	// under the kind after the last one, which a build before PUBLICATION
	// sees in its place: the decoder must refuse it, not guess.
	solicit := publicationDatagram(f)
	f.Add(solicit)
	f.Add(solicit[:len(solicit)/2])
	unknown := bytes.Clone(solicit)
	unknown[3] = byte(kindMax)
	f.Add(unknown)
	// The reserved value in the middle of the range: a peer that still
	// speaks it is refused the same way.
	reserved := bytes.Clone(solicit)
	reserved[3] = byte(kindReserved)
	f.Add(reserved)

	dec := NewDecoder()
	var reused Frame
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if reuseErr := dec.DecodeInto(data, &reused); (reuseErr == nil) != (err == nil) {
			t.Fatalf("Decode: %v, DecodeInto a reused frame: %v", err, reuseErr)
		}
		if err != nil {
			return
		}
		sameFrame(t, "reused frame", reused, got)
		enc, err := got.Encode()
		if err != nil {
			t.Fatalf("re-encoding a decoded frame: %v", err)
		}
		back, err := Decode(enc)
		if err != nil {
			t.Fatalf("decoding the re-encoding: %v", err)
		}
		sameFrame(t, "round trip", back, got)
		if again, _ := back.Encode(); !bytes.Equal(again, enc) {
			t.Fatalf("encoding is not canonical\n 1st %x\n 2nd %x", enc, again)
		}
	})
}

// publicationDatagram is the solicit PublishObjectClass broadcasts.
func publicationDatagram(t testing.TB) []byte {
	t.Helper()
	b, err := Frame{Kind: KindPublication, Node: "pub-pc", LP: "dynamics", Class: "CraneState"}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPublicationDatagram pins the solicit's bytes — a new kind after BYE,
// every existing kind's value where it was — and the two ways a build can
// meet it: this one decodes it, one that stops at BYE gets ErrBadKind and
// nothing else, which is what lets its datagram loop drop it.
func TestPublicationDatagram(t *testing.T) {
	if KindBye != 10 || KindPublication != 11 {
		t.Fatalf("KindBye = %d, KindPublication = %d; want 10, 11", KindBye, KindPublication)
	}
	raw := publicationDatagram(t)
	const want = "cb15010b00000000000000000000000000000000000670" + "75622d7063" + "0864796e616d696373" + "0a4372616e655374617465" + "0000"
	if got := hex.EncodeToString(raw); got != want {
		t.Fatalf("PUBLICATION encodes to\n %s\nwant\n %s", got, want)
	}
	f, err := Decode(raw)
	if err != nil || f.Kind != KindPublication || f.Node != "pub-pc" || f.LP != "dynamics" || f.Class != "CraneState" {
		t.Fatalf("Decode = %+v, %v", f, err)
	}
	if got := f.Kind.String(); got != "PUBLICATION" {
		t.Errorf("Kind.String() = %q", got)
	}
	raw[3] = byte(kindMax)
	if _, err := Decode(raw); !errors.Is(err, ErrBadKind) {
		t.Errorf("the kind after the last decodes with %v, want ErrBadKind", err)
	}
}

func sameFrame(t *testing.T, what string, got, want Frame) {
	t.Helper()
	ga, wa := got.Attrs, want.Attrs
	got.Attrs, want.Attrs = AttrSet{}, AttrSet{}
	if got.Kind != want.Kind || got.Phase != want.Phase || got.Channel != want.Channel || got.Seq != want.Seq ||
		math.Float64bits(got.Time) != math.Float64bits(want.Time) || // bits: NaN is a legal time
		got.Node != want.Node || got.LP != want.LP || got.Class != want.Class || got.Addr != want.Addr {
		t.Fatalf("%s: header %+v, want %+v", what, got, want)
	}
	modelOf(wa).check(t, ga)
}
