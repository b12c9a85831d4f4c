package cod

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
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

// everyKindSample sets every field of an everyKind, each integer at a
// value its width sign- or zero-extends.
func everyKindSample() everyKind {
	return everyKind{
		B: true, I: -1, I8: -8, I16: 1600, I32: -32, I64: 1 << 40, U: 7, U8: 255, U16: 65535, U32: 1 << 31, U64: 1 << 63,
		F32: 1.5, F64: -2.25, S: "boom", Raw: []byte{1, 2, 3}, Floats: []float64{1, 2}, Ints: []int64{-1}, Names: []string{"hook", ""},
	}
}

// craneState is a CraneState-sized class: 19 scalars, all of them in the
// codec's fixed-size prefix.
type craneState struct {
	Seq                                  int64
	X, Y, Z, Heading, Pitch, Roll, Speed float64
	Swing, Luff, BoomLen, CableLen       float64
	HookX, HookY, HookZ, Mass, RPM       float64
	Held, EngineOn                       bool
}

// heartbeatShape opens with a string, as dist's worker heartbeat does, so
// its prefix is empty and every field is Put.
type heartbeatShape struct {
	Worker             string
	Sweep, Slots, Busy int64
	Working            []int64
}

// jobResultShape is dist's job result: a three-scalar prefix, then a
// string and a []byte.
type jobResultShape struct {
	Sweep, Job, Attempt int64
	Worker              string
	Record              []byte
}

// putEncode is the reference encoder: every encoded field Put in
// declaration order through wire's typed writers, the fields found with
// the reflect package rather than the codec's tables.
func putEncode(t *testing.T, v any) wire.AttrSet {
	t.Helper()
	var a wire.AttrSet
	rv := reflect.ValueOf(v)
	id := wire.AttrID(0)
	for i := range rv.NumField() {
		if sf := rv.Type().Field(i); !sf.IsExported() || sf.Tag.Get("cod") == "-" {
			continue
		}
		id++
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Bool:
			a.PutBool(id, f.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			a.PutInt64(id, f.Int())
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			a.PutInt64(id, int64(f.Uint()))
		case reflect.Float32, reflect.Float64:
			a.PutFloat64(id, f.Float())
		case reflect.String:
			a.PutString(id, f.String())
		case reflect.Slice:
			switch vs := f.Interface().(type) {
			case []byte:
				a.PutBytes(id, vs)
			case []float64:
				a.PutFloat64s(id, vs)
			case []int64:
				a.PutInt64s(id, vs)
			case []string:
				a.PutStrings(id, vs)
			default:
				t.Fatalf("putEncode: field %d is a %T", i, vs)
			}
		default:
			t.Fatalf("putEncode: field %d is a %s", i, f.Kind())
		}
	}
	return a
}

func updateBytes(t *testing.T, a wire.AttrSet) []byte {
	t.Helper()
	b, err := wire.Frame{Kind: wire.KindUpdateAttrs, Node: "n", Class: "C", Attrs: a}.AppendEncode(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkLayoutEncode holds encodeInto to the reference encoder, byte for
// byte, on each value, and checks that the frame, decoded, opens with the
// codec's prefix, so decode takes the offsets, not the IDs.
func checkLayoutEncode[T any](t *testing.T, nfixed int, vals ...T) {
	t.Helper()
	c, err := codecFor(reflect.TypeFor[T]())
	if err != nil {
		t.Fatal(err)
	}
	if c.nfixed != nfixed {
		t.Fatalf("%T: %d fields in the fixed-size prefix, want %d", *new(T), c.nfixed, nfixed)
	}
	for _, v := range vals {
		var a wire.AttrSet
		a.PutString(999, "stale") // encodeInto empties the set first
		c.encodeInto(&a, unsafe.Pointer(&v))
		got, want := updateBytes(t, a), updateBytes(t, putEncode(t, v))
		if !bytes.Equal(got, want) {
			t.Fatalf("%T %+v encodes to\n %x\nPut field by field it is\n %x", v, v, got, want)
		}
		var fr wire.Frame
		if err := wire.NewDecoder().DecodeInto(got, &fr); err != nil {
			t.Fatal(err)
		}
		if _, ok := fr.Attrs.MatchLayout(&c.prefix); !ok {
			t.Fatalf("%T: the codec's own frame does not open with its prefix", v)
		}
	}
}

// TestLayoutEncodeMatchesPuts: copying the prefix's records and storing
// the values at their offsets writes the wire bytes the per-field Puts
// write, for every shape of prefix — the whole class, most of it, none,
// part of it before a []byte, a single bool.
func TestLayoutEncodeMatchesPuts(t *testing.T) {
	checkLayoutEncode(t, 19, craneState{}, craneState{
		Seq: -1, X: 100, Y: math.Inf(-1), Z: math.NaN(), Heading: math.Copysign(0, -1), Luff: 0.8,
		BoomLen: 14, Mass: 1800, RPM: math.MaxFloat64, Held: true, EngineOn: true,
	})
	checkLayoutEncode(t, 13, everyKind{}, everyKindSample())
	checkLayoutEncode(t, 0, heartbeatShape{}, heartbeatShape{Worker: "w1", Sweep: 3, Slots: 2, Busy: 1, Working: []int64{4, 5}})
	checkLayoutEncode(t, 3, jobResultShape{}, jobResultShape{Sweep: 1, Job: 42, Attempt: -1, Worker: "w2", Record: bytes.Repeat([]byte{9}, 300)})
	checkLayoutEncode(t, 1, struct{ On bool }{}, struct{ On bool }{true})
}

// freshTypes numbers the struct types TestCodecForConcurrent makes, so
// every round of every run starts from a type no codec was built for.
var freshTypes atomic.Int64

// TestCodecForConcurrent: goroutines that miss the cache for the same type
// at once all get the one codec stored for it, and encode and decode
// through it, its layout shared, at once.
func TestCodecForConcurrent(t *testing.T) {
	for range 32 {
		typ := reflect.StructOf([]reflect.StructField{
			{Name: fmt.Sprintf("F%d", freshTypes.Add(1)), Type: reflect.TypeFor[float64]()},
		})
		start := make(chan struct{})
		got := make([]*codec, 8)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				c, err := codecFor(typ)
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = c
				in, out := reflect.New(typ), reflect.New(typ)
				in.Elem().Field(0).SetFloat(float64(g))
				var a wire.AttrSet
				c.encodeInto(&a, in.UnsafePointer())
				if err := c.decodeInto(&a, out.UnsafePointer()); err != nil || out.Elem().Field(0).Float() != float64(g) {
					t.Errorf("goroutine %d: decoded %v, %v", g, out.Elem(), err)
				}
			}()
		}
		close(start)
		wg.Wait()
		stored, err := codecFor(typ)
		if err != nil {
			t.Fatal(err)
		}
		for g, c := range got {
			if c != stored {
				t.Fatalf("%s: goroutine %d got codec %p, the cache holds %p", typ, g, c, stored)
			}
		}
	}
}

// attrRecord is one attribute as it lies in a frame.
type attrRecord struct {
	id  uint16
	v   []byte
	pad bool // the length (under 0x80) written in two bytes instead of one
}

// updateFrame wraps an attribute section — the records exactly as given,
// in any order, repeated or not — in an UPDATE frame's header.
func updateFrame(count int, recs ...attrRecord) []byte {
	b, _ := wire.Frame{Kind: wire.KindUpdateAttrs, Node: "n", Class: "C"}.Encode()
	b = binary.AppendUvarint(b[:len(b)-1], uint64(count)) // in place of the empty set's count
	for _, r := range recs {
		b = binary.BigEndian.AppendUint16(b, r.id)
		if r.pad {
			b = append(b, byte(len(r.v))|0x80, 0)
		} else {
			b = binary.AppendUvarint(b, uint64(len(r.v)))
		}
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
	sample := everyKindSample()
	var own wire.AttrSet
	c.encodeInto(&own, unsafe.Pointer(&sample))
	var recs []attrRecord
	for id, v := range own.All() {
		recs = append(recs, attrRecord{id: uint16(id), v: v})
	}
	n := len(recs)
	// The codec's own records: the prefix matches its layout.
	f.Add(updateFrame(n, recs...))
	// The first attribute absent: every field read by ID.
	f.Add(updateFrame(n-1, recs[1:]...))
	// One absent in the middle of the prefix.
	f.Add(updateFrame(n-1, append(slices.Clone(recs[:4]), recs[5:]...)...))
	// The prefix intact, a tail attribute (the []byte) absent.
	f.Add(updateFrame(n-1, append(slices.Clone(recs[:14]), recs[15:]...)...))
	// An attribute in front shifts every offset.
	f.Add(updateFrame(n+1, append([]attrRecord{{id: 0}}, recs...)...))
	// The first record's length padded: index refuses it, copyAttrs copies
	// the set out, and the copy matches the layout again.
	f.Add(updateFrame(n, append([]attrRecord{{id: 1, v: []byte{1}, pad: true}}, recs[1:]...)...))
	reversed := slices.Clone(recs)
	slices.Reverse(reversed)
	f.Add(updateFrame(n, reversed...))                                        // descending: copied out, then found by ID
	f.Add(updateFrame(n+1, append(slices.Clone(recs), attrRecord{id: 1})...)) // the bool repeated, empty the second time
	missized := slices.Clone(recs)
	missized[5] = attrRecord{id: 6, v: []byte{1, 2, 3, 4}} // an int64 in four bytes
	f.Add(updateFrame(n, missized...))
	short := slices.Clone(recs)
	short[1] = attrRecord{id: 2, v: []byte{7}} // the int's ID, but one byte where eight belong
	f.Add(updateFrame(n, short...))
	badSlices := slices.Clone(recs)
	badSlices[15] = attrRecord{id: 16, v: make([]byte, 12)}       // []float64 of one and a half elements
	badSlices[17] = attrRecord{id: 18, v: []byte{2, 9, 'a', 'b'}} // []string promising more than it holds
	f.Add(updateFrame(n, badSlices...))
	f.Add(updateFrame(n, recs[:n-1]...)) // the section cut short: refused by the frame decoder

	f.Fuzz(func(t *testing.T, data []byte) {
		var fr wire.Frame
		if err := wire.NewDecoder().DecodeInto(data, &fr); err != nil {
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

// BenchmarkCodec times the typed codec alone: one op encodes a value into a
// reused set and decodes the set back into a struct. A CraneState-sized
// class is all prefix and allocates nothing; a job result's string and
// []byte are copied out on decode, one allocation each.
func BenchmarkCodec(b *testing.B) {
	b.Run("craneState", func(b *testing.B) {
		benchCodec(b, craneState{X: 100, Z: 100, Luff: 0.8, BoomLen: 14, Mass: 1800, EngineOn: true})
	})
	b.Run("jobResult", func(b *testing.B) {
		benchCodec(b, jobResultShape{Sweep: 1, Job: 42, Attempt: 1, Worker: "worker-1", Record: bytes.Repeat([]byte{'x'}, 200)})
	})
}

func benchCodec[T any](b *testing.B, v T) {
	c, err := codecFor(reflect.TypeFor[T]())
	if err != nil {
		b.Fatal(err)
	}
	var a wire.AttrSet
	var out T
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.encodeInto(&a, unsafe.Pointer(&v))
		if err := c.decodeInto(&a, unsafe.Pointer(&out)); err != nil {
			b.Fatal(err)
		}
	}
}
