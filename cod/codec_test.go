package cod

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"codsim/internal/wire"
)

// allKinds exercises every supported field kind of the codec.
type allKinds struct {
	F64     float64
	F32     float32
	I       int
	I64     int64
	U32     uint32
	B       bool
	S       string
	Raw     []byte
	Floats  []float64
	Ints    []int64
	Names   []string
	skipped int    // unexported: ignored
	Ignored string `cod:"-"`
}

func TestCodecRoundTrip(t *testing.T) {
	in := allKinds{
		F64:    3.25,
		F32:    -1.5,
		I:      -42,
		I64:    1 << 40,
		U32:    7,
		B:      true,
		S:      "boom",
		Raw:    []byte{0, 1, 2},
		Floats: []float64{1.5, -2.5},
		Ints:   []int64{-9, 9},
		Names:  []string{"hook", "", "cargo"},
	}
	c, err := codecFor(reflect.TypeOf(in))
	if err != nil {
		t.Fatal(err)
	}
	var attrs wire.AttrSet
	c.encodeInto(&attrs, unsafe.Pointer(&in))
	var out allKinds
	if err := c.decodeInto(&attrs, unsafe.Pointer(&out)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

func TestCodecIsCached(t *testing.T) {
	c1, err := codecFor(reflect.TypeOf(allKinds{}))
	if err != nil {
		t.Fatal(err)
	}
	c2, err := codecFor(reflect.TypeOf(allKinds{}))
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("codec was rebuilt instead of served from the cache")
	}
}

// Named slice types (exact element types) convert through the canonical
// encodings; named element types are rejected at build time, not at the
// first Update.
func TestCodecNamedSliceTypes(t *testing.T) {
	type Path []float64
	type Blob []byte
	type Tags []string
	type ok struct {
		P Path
		B Blob
		T Tags
	}
	in := ok{P: Path{1, 2}, B: Blob{3}, T: Tags{"a"}}
	c, err := codecFor(reflect.TypeOf(in))
	if err != nil {
		t.Fatal(err)
	}
	var attrs wire.AttrSet
	c.encodeInto(&attrs, unsafe.Pointer(&in))
	var out ok
	if err := c.decodeInto(&attrs, unsafe.Pointer(&out)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("named-slice round trip mismatch:\n in  %+v\n out %+v", in, out)
	}

	type MyFloat float64
	type badElem struct{ V []MyFloat }
	if _, err := codecFor(reflect.TypeOf(badElem{})); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("named element type: got %v, want ErrUnsupportedType", err)
	}
}

func TestCodecUnsupportedField(t *testing.T) {
	type bad struct {
		OK float64
		Ch chan int
	}
	if _, err := codecFor(reflect.TypeOf(bad{})); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("chan field: got %v, want ErrUnsupportedType", err)
	}
	type empty struct {
		hidden int
	}
	if _, err := codecFor(reflect.TypeOf(empty{})); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("no encodable fields: got %v, want ErrUnsupportedType", err)
	}
	if _, err := codecFor(reflect.TypeOf(42)); !errors.Is(err, ErrUnsupportedType) {
		t.Fatalf("non-struct: got %v, want ErrUnsupportedType", err)
	}
}

func TestCodecMissingAttr(t *testing.T) {
	type narrow struct{ A float64 }
	type wide struct{ A, B float64 }
	nc, err := codecFor(reflect.TypeOf(narrow{}))
	if err != nil {
		t.Fatal(err)
	}
	wc, err := codecFor(reflect.TypeOf(wide{}))
	if err != nil {
		t.Fatal(err)
	}
	var attrs wire.AttrSet
	nc.encodeInto(&attrs, unsafe.Pointer(&narrow{A: 1}))
	var out wide
	if err := wc.decodeInto(&attrs, unsafe.Pointer(&out)); !errors.Is(err, ErrMissingAttr) {
		t.Fatalf("decode with missing attr: got %v, want ErrMissingAttr", err)
	}
}

// everyKind has one field of each kind the codec maps, every integer width
// included: attribute IDs 1 to 18.
type everyKind struct {
	B      bool
	I      int
	I8     int8
	I16    int16
	I32    int32
	I64    int64
	U      uint
	U8     uint8
	U16    uint16
	U32    uint32
	U64    uint64
	F32    float32
	F64    float64
	S      string
	Raw    []byte
	Floats []float64
	Ints   []int64
	Names  []string
}

// attrRecord is one attribute as it lies in a frame.
type attrRecord struct {
	id uint16
	v  []byte
}

// updateFrame wraps an attribute section — the records exactly as given,
// in any order, repeated or not — in an UPDATE frame's header.
func updateFrame(count int, recs ...attrRecord) []byte {
	b, _ := wire.Frame{Kind: wire.KindUpdateAttrs, Node: "n", Class: "C"}.Encode()
	b = binary.AppendUvarint(b[:len(b)-1], uint64(count)) // in place of the empty set's count
	for _, r := range recs {
		b = binary.BigEndian.AppendUint16(b, r.id)
		b = binary.AppendUvarint(b, uint64(len(r.v)))
		b = append(b, r.v...)
	}
	return b
}

// FuzzDecodeInto hands decodeInto whatever attribute set a peer's frame can
// decode to — attributes absent, mis-sized, out of order, repeated, strings
// and slices malformed. It must never panic and never write outside the
// struct it was given; when it accepts a set, every field holds what wire's
// by-ID readers read from that set, and when it refuses one, some field's
// attribute really is absent or mis-sized.
func FuzzDecodeInto(f *testing.F) {
	c, err := codecFor(reflect.TypeFor[everyKind]())
	if err != nil {
		f.Fatal(err)
	}
	sample := everyKind{
		B: true, I: -1, I8: -8, I16: 1600, I32: -32, I64: 1 << 40, U: 7, U8: 255, U16: 65535, U32: 1 << 31, U64: 1 << 63,
		F32: 1.5, F64: -2.25, S: "boom", Raw: []byte{1, 2, 3}, Floats: []float64{1, 2}, Ints: []int64{-1}, Names: []string{"hook", ""},
	}
	var own wire.AttrSet
	c.encodeInto(&own, unsafe.Pointer(&sample))
	var recs []attrRecord
	for id, v := range own.All() {
		recs = append(recs, attrRecord{uint16(id), v})
	}
	n := len(recs)
	f.Add(updateFrame(n, recs...))                                          // the codec's own dense run: walked in step
	f.Add(updateFrame(n-1, recs[1:]...))                                    // the first attribute absent: every step misses
	f.Add(updateFrame(n-1, append(slices.Clone(recs[:4]), recs[5:]...)...)) // one absent in the middle
	f.Add(updateFrame(n+1, append([]attrRecord{{0, nil}}, recs...)...))     // an attribute in front shifts every position
	reversed := slices.Clone(recs)
	slices.Reverse(reversed)
	f.Add(updateFrame(n, reversed...))                                         // descending: copied out, then found by ID
	f.Add(updateFrame(n+1, append(slices.Clone(recs), attrRecord{1, nil})...)) // the bool repeated, empty the second time
	missized := slices.Clone(recs)
	missized[5] = attrRecord{6, []byte{1, 2, 3, 4}} // an int64 in four bytes
	f.Add(updateFrame(n, missized...))
	badSlices := slices.Clone(recs)
	badSlices[15] = attrRecord{16, make([]byte, 12)}       // []float64 of one and a half elements
	badSlices[17] = attrRecord{18, []byte{2, 9, 'a', 'b'}} // []string promising more than it holds
	f.Add(updateFrame(n, badSlices...))
	f.Add(updateFrame(n, recs[:n-1]...)) // the section cut short: refused by the frame decoder

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := wire.Decode(data)
		if err != nil {
			return
		}
		a := &fr.Attrs
		var g struct {
			before [64]byte
			v      everyKind
			after  [64]byte
		}
		guard := bytes.Repeat([]byte{0xa5}, len(g.before))
		copy(g.before[:], guard)
		copy(g.after[:], guard)
		err = c.decodeInto(a, unsafe.Pointer(&g.v))
		if !bytes.Equal(g.before[:], guard) || !bytes.Equal(g.after[:], guard) {
			t.Fatal("decodeInto wrote outside its target")
		}

		// The reference: each field through wire's typed reader, by ID.
		var want everyKind
		var ok [18]bool
		i64 := func(id wire.AttrID) int64 { v, got := a.Int64(id); ok[id-1] = got; return v }
		f64 := func(id wire.AttrID) float64 { v, got := a.Float64(id); ok[id-1] = got; return v }
		want.B, ok[0] = a.Bool(1)
		want.I, want.I8, want.I16, want.I32, want.I64 = int(i64(2)), int8(i64(3)), int16(i64(4)), int32(i64(5)), i64(6)
		want.U, want.U8, want.U16, want.U32, want.U64 = uint(i64(7)), uint8(i64(8)), uint16(i64(9)), uint32(i64(10)), uint64(i64(11))
		want.F32, want.F64 = float32(f64(12)), f64(13)
		want.S, ok[13] = a.String(14)
		raw, gotRaw := a.Bytes(15)
		want.Raw, ok[14] = append(make([]byte, 0, len(raw)), raw...), gotRaw
		want.Floats, ok[15] = a.Float64s(16)
		want.Ints, ok[16] = a.Int64s(17)
		want.Names, ok[17] = a.Strings(18)
		all := !slices.Contains(ok[:], false)
		switch {
		case err == nil && !all:
			t.Fatalf("decodeInto accepted a set whose attributes read present=%v", ok)
		case err != nil && (all || !errors.Is(err, ErrMissingAttr)):
			t.Fatalf("decodeInto refused with %v a set whose attributes read present=%v", err, ok)
		case err != nil:
			return
		}
		// Bit patterns, not ==: a NaN is a legal float.
		if math.Float32bits(g.v.F32) != math.Float32bits(want.F32) || math.Float64bits(g.v.F64) != math.Float64bits(want.F64) {
			t.Fatalf("floats decoded to (%v, %v), the readers say (%v, %v)", g.v.F32, g.v.F64, want.F32, want.F64)
		}
		g.v.F32, g.v.F64, want.F32, want.F64 = 0, 0, 0, 0
		for i, x := range g.v.Floats {
			if math.Float64bits(x) != math.Float64bits(want.Floats[i]) {
				t.Fatalf("Floats[%d] = %v, the reader says %v", i, x, want.Floats[i])
			}
		}
		g.v.Floats, want.Floats = nil, nil
		if !reflect.DeepEqual(g.v, want) {
			t.Fatalf("decoded\n %+v\nthe by-ID readers say\n %+v", g.v, want)
		}
		if len(raw) > 0 && &g.v.Raw[0] == &raw[0] {
			t.Fatal("a []byte field aliases the reflection's storage")
		}
	})
}
