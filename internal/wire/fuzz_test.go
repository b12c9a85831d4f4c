package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
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

// FuzzAttrSetOps runs a Put/remove/get script against the map model. Each
// op is three bytes: opcode (its high bit stretches the value sevenfold),
// ID selector, value length. The selector's high bit spreads IDs far apart
// (sparse sets miss the dense index), its low bits collide often (repeated
// Puts, last wins, a value re-put at another size strands its old record),
// and scripts are free to descend (the unsorted flag and the encode-time
// sort). A set has no delete: removing an ID rebuilds the set without it,
// in the order it had.
func FuzzAttrSetOps(f *testing.F) {
	f.Add([]byte{0, 1, 8, 0, 2, 4, 0, 3, 1})                      // ascending: the arena is the encoding
	f.Add([]byte{0, 9, 8, 0, 5, 8, 0, 2, 8, 0, 1, 8})             // descending
	f.Add([]byte{0, 4, 8, 0, 4, 3, 0, 4, 8, 0, 4, 0})             // one ID rewritten at several sizes
	f.Add([]byte{0, 1, 8, 0, 2, 8, 0, 1, 8, 0, 3, 8})             // rewritten at its own size: still the encoding
	f.Add([]byte{0, 0x81, 8, 0, 0x85, 8, 0, 0x83, 4})             // sparse, out of order
	f.Add([]byte{0, 1, 8, 0, 2, 8, 1, 1, 0, 0, 3, 8, 2, 1})       // remove the head: dense probe must miss
	f.Add([]byte{0, 3, 8, 0, 1, 8, 0, 5, 8, 1, 3, 0, 0, 3})       // Put into an unsorted set after a removal
	f.Add([]byte{0, 2, 24, 0, 3, 1, 0, 4, 4, 2, 2, 2, 3, 2})      // typed sizes, mis-sized reads
	f.Add([]byte{0x81, 1, 18, 0x81, 2, 19, 0x81, 2, 18, 0, 3, 0}) // 126 and 133 bytes: lengths either side of one prefix byte
	f.Add([]byte{2, 1, 0, 1, 1, 0})                               // the empty set a PUBLICATION carries: read and remove, nothing put
	f.Fuzz(func(t *testing.T, script []byte) {
		var a AttrSet
		m := attrModel{}
		for ; len(script) >= 3; script = script[3:] {
			op, sel, n := script[0]%3, script[1], int(script[2])%40
			if script[0]&0x80 != 0 {
				n *= 7 // past 127 bytes a record's length prefix takes two
			}
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
				var without AttrSet
				for have, v := range a.All() {
					if have != id {
						without.PutBytes(have, v)
					}
				}
				a = without
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

		// The set's own encoding is canonical, so it decodes in place; the
		// decoded set is held to the same model, and so is one written to
		// after decoding, which must leave the bytes it was decoded from.
		enc := a.append(nil)
		pristine := bytes.Clone(enc)
		var back AttrSet
		end, err := readAttrSetInto(&back, enc, 0)
		if err != nil || end != len(enc) {
			t.Fatalf("decoding the set's own encoding: %v, ends at %d of %d", err, end, len(enc))
		}
		if back.Len() > 0 && !back.borrowed {
			t.Fatal("the set's own encoding was not indexed in place")
		}
		m.check(t, back)
		m.check(t, back.Clone())
		back.PutBytes(0xffff, []byte("tail"))
		back.PutBytes(0xffff, []byte("t"))
		m[0xffff] = []byte("t")
		m.check(t, back)
		if !bytes.Equal(enc, pristine) {
			t.Fatal("a Put into a decoded set wrote into the buffer it was decoded from")
		}
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

// copyingDecode decodes the attribute section of data, a frame Decode
// accepted, through copyAttrs whatever its form: the decoder every set
// went through before sections were indexed in place, kept as the path for
// what index turns down and used here as the reference for what it takes.
func copyingDecode(t *testing.T, data []byte) AttrSet {
	t.Helper()
	at := 21
	for range 4 { // node, lp, class, addr
		n, sz := binary.Uvarint(data[at:])
		at += sz + int(n)
	}
	count, sz := binary.Uvarint(data[at:])
	var a AttrSet
	end, err := a.copyAttrs(data, at+sz, count)
	if err != nil || end != len(data) {
		t.Fatalf("copying decode of an accepted frame: %v, ends at %d of %d", err, end, len(data))
	}
	if a.borrowed {
		t.Fatal("the copying decode left the set borrowing its input")
	}
	return a
}

// FuzzDecodeFrame feeds the frame decoder arbitrary bytes: it must never
// panic, and whatever it accepts must hold the same attributes the copying
// decoder reads from those bytes, encode them to the same section, and
// re-encode to bytes that decode to the same frame — through the
// allocating Decode, through a Decoder reusing its frame, and off a
// stream into storage the frame owns, which is what the link runs.
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
	// Ascending, so indexed in place — and the same frame cut inside its
	// last value, inside a two-byte length prefix, and with that prefix
	// padded to three bytes, which only the copying path accepts.
	long := hostileAttrs(2, []byte{1}, 9, bytes.Repeat([]byte{9}, 300))
	f.Add(long)
	f.Add(long[:len(long)-7])
	f.Add(long[:len(long)-301])
	f.Add(append(append(bytes.Clone(long[:len(long)-302]), 0xac, 0x82, 0x00), long[len(long)-300:]...))
	// The datagram-only solicit, whole and cut short, and the same bytes
	// under the kind after the last one, which a build before PUBLICATION
	// sees in its place: the decoder must refuse it, not guess.
	solicit := publicationDatagram(f)
	f.Add(solicit)
	f.Add(solicit[:len(solicit)/2])
	unknown := bytes.Clone(solicit)
	unknown[3] = byte(KindPublication + 1)
	f.Add(unknown)
	// The retired values in the middle of the range: a peer that still
	// speaks one is refused the same way.
	for _, k := range []Kind{5, kindReserved, 8, 9} {
		retired := bytes.Clone(solicit)
		retired[3] = byte(k)
		f.Add(retired)
	}

	dec := NewDecoder()
	var reused, streamed Frame
	f.Fuzz(func(t *testing.T, data []byte) {
		pristine := bytes.Clone(data)
		got, err := Decode(data)
		if reuseErr := dec.DecodeInto(data, &reused); (reuseErr == nil) != (err == nil) {
			t.Fatalf("Decode: %v, DecodeInto a reused frame: %v", err, reuseErr)
		}
		var pfx [4]byte
		binary.BigEndian.PutUint32(pfx[:], uint32(len(data)))
		streamErr := dec.DecodeFrom(io.MultiReader(bytes.NewReader(pfx[:]), bytes.NewReader(data)), &streamed)
		if (streamErr == nil) != (err == nil) {
			t.Fatalf("Decode: %v, DecodeFrom a stream: %v", err, streamErr)
		}
		if streamed.Attrs.borrowed {
			t.Fatal("a frame read off a stream does not own its storage")
		}
		if err != nil {
			return
		}
		sameFrame(t, "reused frame", reused, got)
		sameFrame(t, "streamed frame", streamed, got)
		copied := copyingDecode(t, data)
		modelOf(copied).check(t, got.Attrs)
		if in, cp := got.Attrs.append(nil), copied.append(nil); !bytes.Equal(in, cp) {
			t.Fatalf("the decoded set encodes to\n %x\nthe copying decoder's to\n %x", in, cp)
		}
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
		if !bytes.Equal(data, pristine) {
			t.Fatal("decoding or encoding wrote into the input")
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
	raw[3] = byte(KindPublication + 1)
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
