package wire

import (
	"math"
	"testing"
	"testing/quick"
)

// TestFrameRoundTripProperty: any frame built from generated values must
// survive Encode→Decode bit-exactly.
func TestFrameRoundTripProperty(t *testing.T) {
	f := func(kindRaw uint8, phase uint8, channel, seq uint32, timeBits uint64,
		node, lp, class, addr string, a1 float64, a2 uint32, a3 []byte) bool {
		kind := kindBytes[int(kindRaw)%len(kindBytes)].kind // valid kinds only: the table skips the reserved 7
		tm := math.Float64frombits(timeBits)
		attrs := AttrSet{}
		attrs.PutFloat64(1, a1)
		attrs.PutUint32(2, a2)
		if a3 != nil {
			if len(a3) > 1024 {
				a3 = a3[:1024]
			}
			attrs.PutBytes(3, a3)
		}
		in := Frame{
			Kind:    kind,
			Phase:   phase,
			Channel: channel,
			Seq:     seq,
			Time:    tm,
			Node:    node,
			LP:      lp,
			Class:   class,
			Addr:    addr,
			Attrs:   attrs,
		}
		b, err := in.Encode()
		if err != nil {
			// Only oversized frames may fail; generated strings are small.
			return len(b) == 0 && err == ErrTooLarge
		}
		out, err := Decode(b)
		if err != nil {
			return false
		}
		// Header field by field (time by its bits: NaN is a legal time),
		// attributes through the map model: the property is about values,
		// not about how an AttrSet happens to hold them.
		sameFrame(t, "round trip", out, in)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestAttrSetRoundTripProperty: arbitrary attribute maps survive the
// encoding inside a frame.
func TestAttrSetRoundTripProperty(t *testing.T) {
	f := func(keys []uint16, blobs [][]byte) bool {
		attrs := AttrSet{}
		ref := map[AttrID][]byte{}
		for i, k := range keys {
			var v []byte
			if i < len(blobs) && blobs[i] != nil {
				v = blobs[i]
				if len(v) > 512 {
					v = v[:512]
				}
			} else {
				v = []byte{}
			}
			attrs.PutBytes(AttrID(k), v)
			ref[AttrID(k)] = v
		}
		in := Frame{Kind: KindUpdateAttrs, Attrs: attrs}
		b, err := in.Encode()
		if err != nil {
			return err == ErrTooLarge
		}
		out, err := Decode(b)
		if err != nil {
			return false
		}
		if out.Attrs.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got, ok := out.Attrs.Bytes(k)
			if !ok || string(got) != string(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
