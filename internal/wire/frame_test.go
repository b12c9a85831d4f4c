package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

// Decode parses a frame from b, which must contain exactly one encoded
// frame, with no intern table: the tests' short form of
// Decoder.DecodeInto, whose Attrs borrow b.
func Decode(b []byte) (Frame, error) {
	var f Frame
	err := (*Decoder)(nil).DecodeInto(b, &f)
	return f, err
}

func sampleFrame() Frame {
	attrs := AttrSet{}
	attrs.PutFloat64(1, 3.14159)
	attrs.PutUint32(2, 42)
	attrs.PutString(3, "cargo")
	attrs.PutBool(4, true)
	attrs.PutVec3(5, 1, -2, 3.5)
	return Frame{
		Kind:    KindUpdateAttrs,
		Phase:   0,
		Channel: 7,
		Seq:     1001,
		Time:    12.5,
		Node:    "display-1",
		LP:      "visual",
		Class:   "CraneState",
		Addr:    "",
		Attrs:   attrs,
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := sampleFrame()
	b, err := f.Encode()
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sameFrame(t, "round trip", got, f)
}

// kindBytes pins every spoken kind to its byte on the wire. 5, 7, 8 and 9
// are missing on purpose: no build sends them, and they are refused
// (TestEncodeInvalidKind).
var kindBytes = []struct {
	kind Kind
	b    byte
	name string
}{
	{KindSubscription, 1, "SUBSCRIPTION"},
	{KindAcknowledge, 2, "ACKNOWLEDGE"},
	{KindChannelConn, 3, "CHANNEL_CONNECTION"},
	{KindUpdateAttrs, 4, "UPDATE_ATTRIBUTE_VALUE"},
	{KindHeartbeat, 6, "HEARTBEAT"},
	{KindBye, 10, "BYE"},
	{KindPublication, 11, "PUBLICATION"},
}

func TestEncodeDecodeAllKinds(t *testing.T) {
	if want := bits.OnesCount16(validKinds); len(kindBytes) != want {
		t.Fatalf("kindBytes pins %d kinds, the package defines %d", len(kindBytes), want)
	}
	for _, tc := range kindBytes {
		k := tc.kind
		f := Frame{Kind: k, Node: "n", Class: "c", Phase: AckChannelUp}
		b, err := f.Encode()
		if err != nil {
			t.Fatalf("Encode(%v): %v", k, err)
		}
		if b[3] != tc.b || k.String() != tc.name {
			t.Errorf("kind %v encodes as byte %d, want %s as byte %d", k, b[3], tc.name, tc.b)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(%v): %v", k, err)
		}
		if got.Kind != k {
			t.Errorf("kind %v decoded as %v", k, got.Kind)
		}
	}
}

func TestEncodeInvalidKind(t *testing.T) {
	valid, err := Frame{Kind: KindHeartbeat, Node: "n"}.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// 5, 8 and 9 were REFLECT_ATTRIBUTE_VALUE, FRAME_READY and FRAME_SWAP,
	// which no build sent; 12 is the kind after the last.
	for _, k := range []Kind{0, 5, kindReserved, 8, 9, KindPublication + 1, 200} {
		if _, err := (Frame{Kind: k, Node: "n"}).Encode(); !errors.Is(err, ErrBadKind) {
			t.Errorf("Encode kind %d err = %v, want ErrBadKind", k, err)
		}
		b := append([]byte(nil), valid...)
		b[3] = byte(k)
		if _, err := Decode(b); !errors.Is(err, ErrBadKind) {
			t.Errorf("Decode kind byte %d err = %v, want ErrBadKind", k, err)
		}
	}
	if kindReserved != 7 {
		t.Errorf("reserved kind = %d, want 7", kindReserved)
	}
}

func TestDecodeErrors(t *testing.T) {
	valid, err := sampleFrame().Encode()
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[0] ^= 0xFF
		if _, err := Decode(b); !errors.Is(err, ErrBadMagic) {
			t.Errorf("err = %v, want ErrBadMagic", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[2] = 99
		if _, err := Decode(b); !errors.Is(err, ErrBadVersion) {
			t.Errorf("err = %v, want ErrBadVersion", err)
		}
	})
	t.Run("bad kind", func(t *testing.T) {
		b := append([]byte(nil), valid...)
		b[3] = 200
		if _, err := Decode(b); !errors.Is(err, ErrBadKind) {
			t.Errorf("err = %v, want ErrBadKind", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(nil); !errors.Is(err, ErrTruncated) {
			t.Errorf("err = %v, want ErrTruncated", err)
		}
	})
	t.Run("truncated everywhere", func(t *testing.T) {
		// Every prefix of a valid frame must fail, never panic.
		for i := 0; i < len(valid); i++ {
			if _, err := Decode(valid[:i]); err == nil {
				t.Fatalf("Decode of %d-byte prefix succeeded", i)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		b := append(append([]byte(nil), valid...), 0xAA)
		if _, err := Decode(b); err == nil {
			t.Error("Decode with trailing byte succeeded")
		}
	})
}

func TestDecodeFuzzResilience(t *testing.T) {
	// Random mutations of a valid frame must never panic.
	valid, err := sampleFrame().Encode()
	if err != nil {
		t.Fatal(err)
	}
	f := func(pos int, val byte) bool {
		b := append([]byte(nil), valid...)
		b[abs(pos)%len(b)] = val
		_, _ = Decode(b) // outcome irrelevant; must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

func TestStreamFraming(t *testing.T) {
	frames := []Frame{
		{Kind: KindSubscription, Node: "a", LP: "lp1", Class: "X"},
		sampleFrame(),
		{Kind: KindBye, Node: "a"},
	}
	var stream []byte
	for i := range frames {
		var err error
		if stream, err = frames[i].AppendFramed(stream); err != nil {
			t.Fatalf("AppendFramed[%d]: %v", i, err)
		}
	}
	// A frame that fails to encode leaves the stream as it was.
	if got, err := (Frame{Node: "a"}).AppendFramed(stream); !errors.Is(err, ErrBadKind) || len(got) != len(stream) {
		t.Errorf("AppendFramed of a kindless frame = %d bytes, %v; want %d, ErrBadKind", len(got), err, len(stream))
	}
	r, dec := bytes.NewReader(stream), NewDecoder()
	for i := range frames {
		var got Frame
		if err := dec.DecodeFrom(r, &got); err != nil {
			t.Fatalf("DecodeFrom[%d]: %v", i, err)
		}
		sameFrame(t, fmt.Sprintf("frame %d", i), got, frames[i])
	}
	var f Frame
	if err := dec.DecodeFrom(r, &f); !errors.Is(err, io.EOF) {
		t.Errorf("DecodeFrom on empty stream = %v, want io.EOF", err)
	}
}

// TestSetChannelSeqStampsFramedCopy: the stamp lands on the Channel and
// Seq fields of a framed frame and changes nothing else.
func TestSetChannelSeqStampsFramedCopy(t *testing.T) {
	f := sampleFrame()
	framed, err := f.AppendFramed(nil)
	if err != nil {
		t.Fatal(err)
	}
	SetChannelSeq(framed, 0xA1B2C3D4, 99)
	var got Frame
	if err := NewDecoder().DecodeFrom(bytes.NewReader(framed), &got); err != nil {
		t.Fatal(err)
	}
	f.Channel, f.Seq = 0xA1B2C3D4, 99
	sameFrame(t, "stamped", got, f)
}

func TestDecodeFromOversize(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // 4 GiB claimed length
	var f Frame
	if err := NewDecoder().DecodeFrom(&buf, &f); !errors.Is(err, ErrTooLarge) {
		t.Errorf("err = %v, want ErrTooLarge", err)
	}
}

func TestKindString(t *testing.T) {
	if got := KindUpdateAttrs.String(); got != "UPDATE_ATTRIBUTE_VALUE" {
		t.Errorf("String = %q", got)
	}
	if got := Kind(250).String(); got != "Kind(250)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestAttrSetTypes(t *testing.T) {
	a := AttrSet{}

	a.PutFloat64(1, -1.5)
	if v, ok := a.Float64(1); !ok || v != -1.5 {
		t.Errorf("Float64 = %v,%v", v, ok)
	}
	a.PutUint32(2, 7)
	if v, ok := a.Uint32(2); !ok || v != 7 {
		t.Errorf("Uint32 = %v,%v", v, ok)
	}
	a.PutBool(3, true)
	if v, ok := a.Bool(3); !ok || !v {
		t.Errorf("Bool = %v,%v", v, ok)
	}
	a.PutBool(4, false)
	if v, ok := a.Bool(4); !ok || v {
		t.Errorf("Bool false = %v,%v", v, ok)
	}
	a.PutString(5, "hello")
	if v, ok := a.String(5); !ok || v != "hello" {
		t.Errorf("String = %q,%v", v, ok)
	}
	a.PutVec3(6, 1, 2, 3)
	if x, y, z, ok := a.Vec3(6); !ok || x != 1 || y != 2 || z != 3 {
		t.Errorf("Vec3 = %v,%v,%v,%v", x, y, z, ok)
	}

	// Missing and mis-sized reads.
	if _, ok := a.Float64(99); ok {
		t.Error("Float64 on missing id ok=true")
	}
	a.PutBytes(7, []byte{1, 2})
	if _, ok := a.Float64(7); ok {
		t.Error("Float64 on 2-byte value ok=true")
	}
	if _, _, _, ok := a.Vec3(7); ok {
		t.Error("Vec3 on 2-byte value ok=true")
	}

	// NaN round-trips bit-exactly through encode/decode.
	a.PutFloat64(8, math.NaN())
	f := Frame{Kind: KindUpdateAttrs, Attrs: a}
	b, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.Attrs.Float64(8); !ok || !math.IsNaN(v) {
		t.Errorf("NaN round trip = %v,%v", v, ok)
	}
}

func TestAttrSetClone(t *testing.T) {
	a := AttrSet{}
	a.PutString(1, "original")
	c := a.Clone()
	cb, _ := c.Bytes(1)
	cb[0] = 'X'
	if v, _ := a.String(1); v != "original" {
		t.Errorf("Clone aliases storage: %q", v)
	}
	if got := (AttrSet{}).Clone(); got.Len() != 0 {
		t.Errorf("Clone(empty).Len() = %d, want 0", got.Len())
	}
}

func TestAttrSetDeterministicEncoding(t *testing.T) {
	// Build order and internal state must not leak into the encoding.
	a := AttrSet{}
	for i := AttrID(1); i <= 20; i++ {
		a.PutUint32(i, uint32(i))
	}
	f := Frame{Kind: KindUpdateAttrs, Attrs: a}
	first, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		b, err := f.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, b) {
			t.Fatal("encoding not deterministic")
		}
	}
}

func TestEmptyAttrSetRoundTrip(t *testing.T) {
	f := Frame{Kind: KindHeartbeat, Node: "n1"}
	b, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Attrs.Len() != 0 {
		t.Errorf("empty attrs decoded with %d entries, want 0", got.Attrs.Len())
	}
}

// TestOneRepresentation holds the AttrSet to being its own encoding. Built
// ascending, its arena is the frame's attribute section byte for byte, so
// encoding is the count and one append; decoded from such a frame, every
// value is the input's own bytes — nothing was copied — and the section is
// again the arena from sec on. What no encoder in the tree writes
// (repeated, descending or padded-length records) is copied out instead
// and leaves the input alone.
func TestOneRepresentation(t *testing.T) {
	f := sampleFrame()
	enc, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	empty := f
	empty.Attrs = AttrSet{}
	hdr, _ := empty.Encode()
	section := enc[len(hdr):] // the empty set's count byte is as long as this set's
	if !bytes.Equal(f.Attrs.arena, section) {
		t.Fatalf("built arena\n %x\nis not the encoded section\n %x", f.Attrs.arena, section)
	}

	// touched writes through every decoded value and counts the input
	// bytes that changed.
	touched := func(b []byte, a AttrSet) (values, changed int) {
		before := bytes.Clone(b)
		for _, v := range a.All() {
			if len(v) > 0 {
				v[0] ^= 0xff
				values++
			}
		}
		for i := range b {
			if b[i] != before[i] {
				changed++
			}
		}
		return values, changed
	}
	var got Frame
	if err := (*Decoder)(nil).DecodeInto(enc, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Attrs.borrowed || !bytes.Equal(got.Attrs.arena[got.Attrs.sec:], section) {
		t.Fatalf("decoded arena from sec on is not the frame's section (borrowed=%v)", got.Attrs.borrowed)
	}
	if values, changed := touched(enc, got.Attrs); changed != values || values != f.Attrs.Len() {
		t.Fatalf("%d of %d decoded values are the input's own bytes", changed, values)
	}

	for name, raw := range map[string][]byte{
		"repeated ID":   hostileAttrs(3, []byte{1}, 3, []byte{2}),
		"descending":    hostileAttrs(3, []byte{1}, 2, []byte{2}),
		"padded length": append(hostileAttrs()[:len(hostileAttrs())-1], 1, 0, 3, 0x81, 0x00, 7),
	} {
		if err := (*Decoder)(nil).DecodeInto(raw, &got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if values, changed := touched(raw, got.Attrs); got.Attrs.borrowed || changed != 0 || values == 0 {
			t.Errorf("%s: borrowed=%v, %d of %d values alias the input; want a copy", name, got.Attrs.borrowed, changed, values)
		}
	}
}

// BenchmarkFrameEncode times the form a link's send runs: AppendEncode into
// a buffer it reuses. Gated at 0 allocs/op (the Encode convenience
// allocates its result; nothing per-frame calls it).
func BenchmarkFrameEncode(b *testing.B) {
	f := sampleFrame()
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = f.AppendEncode(buf[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrameDecode times the form a link's read loop runs: one Decoder
// decoding into one reused Frame, header strings kept from the frame
// before, attrs indexed where they lie. Gated at 0 allocs/op.
func BenchmarkFrameDecode(b *testing.B) {
	buf, err := sampleFrame().Encode()
	if err != nil {
		b.Fatal(err)
	}
	dec := NewDecoder()
	var f Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := dec.DecodeInto(buf, &f); err != nil {
			b.Fatal(err)
		}
	}
}
