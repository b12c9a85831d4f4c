package wire

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math"
)

// AttrID identifies one attribute of an object class, the HLA "attribute
// handle". IDs are assigned by the object model (package fom).
type AttrID uint16

// AttrSet carries the attribute values of one UPDATE/REFLECT frame. Values
// are opaque byte strings at this layer; package fom assigns them types.
//
// The representation is a flat arena: every value lives in one contiguous
// byte buffer, and a small ref table records (id, start, end) per
// attribute in insertion order. Building a full CraneState therefore
// costs at most two allocations (refs + arena), both amortized to zero
// when the set is Reset and refilled — which is what the pooled wire hot
// path does. The zero value is a valid empty set.
//
// Determinism: the encoded form orders attributes by ascending ID, which
// is byte-identical to the historical map+sort encoder. Every producer in
// the tree (fom encoders, the cod codec) inserts attributes in ascending
// ID order already, so encoding walks the refs as-is and the per-frame
// sort is gone; a set built out of order (sparse/legacy call sites) is
// flagged and lazily sorted once at encode time instead. One writer per
// frame is the concurrency contract — AttrSet has no internal locking.
type AttrSet struct {
	refs     []attrRef
	arena    []byte
	unsorted bool // some Put arrived with an ID below the tail; encode must sort
}

// attrRef locates one attribute's value bytes inside the arena.
type attrRef struct {
	id         AttrID
	start, end uint32
}

// NewAttrSet returns an empty set with room for n attributes (and a
// size-estimated arena) so the common build-then-encode pattern does not
// regrow either buffer.
func NewAttrSet(n int) AttrSet {
	return AttrSet{
		refs:  make([]attrRef, 0, n),
		arena: make([]byte, 0, 16*n),
	}
}

// Len returns the number of attributes in the set.
func (a AttrSet) Len() int { return len(a.refs) }

// Reset empties the set, keeping both buffers' capacity for reuse.
func (a *AttrSet) Reset() {
	a.refs = a.refs[:0]
	a.arena = a.arena[:0]
	a.unsorted = false
}

// Clone returns a deep copy of the set, so received frames can be retained
// past the decoder's buffer lifetime (copy-at-boundary rule).
func (a AttrSet) Clone() AttrSet {
	if len(a.refs) == 0 {
		return AttrSet{}
	}
	out := AttrSet{
		refs:     make([]attrRef, len(a.refs)),
		arena:    make([]byte, len(a.arena)),
		unsorted: a.unsorted,
	}
	copy(out.refs, a.refs)
	copy(out.arena, a.arena)
	return out
}

// CloneInto makes dst a deep copy of the set, reusing dst's buffers: the
// recycling form of Clone, which allocates nothing once dst has held a
// set of this size. dst must not alias a.
func (a AttrSet) CloneInto(dst *AttrSet) {
	dst.refs = append(dst.refs[:0], a.refs...)
	dst.arena = append(dst.arena[:0], a.arena...)
	dst.unsorted = a.unsorted
}

// All iterates the set's (id, value) pairs in insertion order. Values
// alias the arena; Clone them before mutating the set.
func (a AttrSet) All() iter.Seq2[AttrID, []byte] {
	return func(yield func(AttrID, []byte) bool) {
		for _, r := range a.refs {
			if !yield(r.id, a.arena[r.start:r.end]) {
				return
			}
		}
	}
}

// Delete removes id from the set, if present (compat shim for sparse
// call sites that subset a full set). Remaining attributes keep their
// order; the value bytes stay orphaned in the arena until Reset.
func (a *AttrSet) Delete(id AttrID) {
	for i := range a.refs {
		if a.refs[i].id == id {
			a.refs = append(a.refs[:i], a.refs[i+1:]...)
			return
		}
	}
}

// get returns the value bytes for id, aliasing the arena. Object models
// number their attributes densely (fom and the cod codec both count up
// from a base), so id's ref sits at index id − refs[0].id in every set
// the tree produces; that slot is probed first and the scan only runs
// for sparse or out-of-order sets. IDs are unique (slot dedups), so a
// probe hit is the one ref for id.
func (a AttrSet) get(id AttrID) ([]byte, bool) {
	if len(a.refs) == 0 {
		return nil, false
	}
	if i := int(id) - int(a.refs[0].id); i >= 0 && i < len(a.refs) && a.refs[i].id == id {
		r := a.refs[i]
		return a.arena[r.start:r.end], true
	}
	for _, r := range a.refs {
		if r.id == id {
			return a.arena[r.start:r.end], true
		}
	}
	return nil, false
}

// grow extends b by n bytes (contents of the extension unspecified —
// every caller overwrites the full slot).
func grow(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	nb := make([]byte, len(b)+n, max(2*cap(b)+n, 64))
	copy(nb, b)
	return nb
}

// slot returns an n-byte writable region for id's value. A repeated Put
// replaces the previous value (map semantics): in place when the size
// matches, else the value moves to fresh arena space and the old bytes
// are orphaned until Reset. New IDs append; an ID below the current tail
// marks the set for the encode-time sort shim.
//
// While the set is sorted, an ID above the tail cannot be a duplicate, so
// it appends without looking — the ascending build every encoder and the
// frame decoder perform is O(n), not O(n²). Anything else (a repeat, an
// ID below the tail, any Put into an unsorted set) takes the scan.
func (a *AttrSet) slot(id AttrID, n int) []byte {
	if !a.unsorted && (len(a.refs) == 0 || id > a.refs[len(a.refs)-1].id) {
		return a.appendSlot(id, n)
	}
	for i := range a.refs {
		if a.refs[i].id == id {
			r := &a.refs[i]
			if int(r.end-r.start) != n {
				start := uint32(len(a.arena))
				a.arena = grow(a.arena, n)
				r.start, r.end = start, start+uint32(n)
			}
			return a.arena[r.start:r.end]
		}
	}
	if len(a.refs) > 0 && id < a.refs[len(a.refs)-1].id {
		a.unsorted = true
	}
	return a.appendSlot(id, n)
}

// appendSlot adds a ref for id at the tail with n fresh arena bytes.
func (a *AttrSet) appendSlot(id AttrID, n int) []byte {
	start := uint32(len(a.arena))
	a.arena = grow(a.arena, n)
	a.refs = append(a.refs, attrRef{id: id, start: start, end: start + uint32(n)})
	return a.arena[start : start+uint32(n)]
}

func (a AttrSet) encodedSize() int {
	n := binary.MaxVarintLen32
	for _, r := range a.refs {
		n += 2 + binary.MaxVarintLen32 + int(r.end-r.start)
	}
	return n
}

// sortRefs orders the refs ascending by ID, in place. Sets are tiny
// (≤ ~20 attrs), so insertion sort beats sort.Slice and allocates
// nothing. IDs are unique by construction, so stability is moot.
func sortRefs(refs []attrRef) {
	for i := 1; i < len(refs); i++ {
		for j := i; j > 0 && refs[j].id < refs[j-1].id; j-- {
			refs[j], refs[j-1] = refs[j-1], refs[j]
		}
	}
}

// append serializes the set: uvarint count, then per attribute a big-endian
// uint16 ID and a uvarint-length-prefixed value, ascending by ID. The
// common ascending-insertion set encodes in ref order with no sort; an
// out-of-order set is sorted in place first (compat shim — same bytes as
// the historical map encoder).
func (a AttrSet) append(buf []byte) []byte {
	if a.unsorted {
		sortRefs(a.refs)
	}
	buf = binary.AppendUvarint(buf, uint64(len(a.refs)))
	for _, r := range a.refs {
		buf = binary.BigEndian.AppendUint16(buf, uint16(r.id))
		v := a.arena[r.start:r.end]
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// readAttrSetInto parses an encoded set into dst, reusing dst's buffers.
func readAttrSetInto(dst *AttrSet, b []byte) ([]byte, error) {
	dst.Reset()
	count, sz := binary.Uvarint(b)
	if sz <= 0 {
		return nil, ErrTruncated
	}
	b = b[sz:]
	if count == 0 {
		return b, nil
	}
	if count > MaxFrameSize/3 {
		return nil, fmt.Errorf("%w: %d attributes", ErrTooLarge, count)
	}
	for i := uint64(0); i < count; i++ {
		if len(b) < 2 {
			return nil, ErrTruncated
		}
		id := AttrID(binary.BigEndian.Uint16(b))
		b = b[2:]
		n, sz := binary.Uvarint(b)
		if sz <= 0 {
			return nil, ErrTruncated
		}
		b = b[sz:]
		if uint64(len(b)) < n {
			return nil, ErrTruncated
		}
		// slot keeps the old decoder's duplicate-ID semantics: last wins.
		copy(dst.slot(id, int(n)), b[:n])
		b = b[n:]
	}
	return b, nil
}

// PutFloat64 stores a float64 value under id.
func (a *AttrSet) PutFloat64(id AttrID, v float64) {
	binary.BigEndian.PutUint64(a.slot(id, 8), math.Float64bits(v))
}

// Float64 reads a float64 value; ok is false when absent or mis-sized.
func (a AttrSet) Float64(id AttrID) (v float64, ok bool) {
	b, present := a.get(id)
	if !present || len(b) != 8 {
		return 0, false
	}
	return math.Float64frombits(binary.BigEndian.Uint64(b)), true
}

// PutUint32 stores a uint32 value under id.
func (a *AttrSet) PutUint32(id AttrID, v uint32) {
	binary.BigEndian.PutUint32(a.slot(id, 4), v)
}

// Uint32 reads a uint32 value; ok is false when absent or mis-sized.
func (a AttrSet) Uint32(id AttrID) (v uint32, ok bool) {
	b, present := a.get(id)
	if !present || len(b) != 4 {
		return 0, false
	}
	return binary.BigEndian.Uint32(b), true
}

// PutBool stores a boolean value under id.
func (a *AttrSet) PutBool(id AttrID, v bool) {
	s := a.slot(id, 1)
	if v {
		s[0] = 1
	} else {
		s[0] = 0
	}
}

// Bool reads a boolean value; ok is false when absent or mis-sized.
func (a AttrSet) Bool(id AttrID) (v, ok bool) {
	b, present := a.get(id)
	if !present || len(b) != 1 {
		return false, false
	}
	return b[0] != 0, true
}

// PutString stores a string value under id.
func (a *AttrSet) PutString(id AttrID, s string) {
	copy(a.slot(id, len(s)), s)
}

// String reads a string value; ok is false when absent.
func (a AttrSet) String(id AttrID) (s string, ok bool) {
	b, present := a.get(id)
	if !present {
		return "", false
	}
	return string(b), true
}

// PutInt64 stores a signed 64-bit value under id (big-endian two's
// complement). The cod SDK's codec uses this for every Go integer kind.
func (a *AttrSet) PutInt64(id AttrID, v int64) {
	binary.BigEndian.PutUint64(a.slot(id, 8), uint64(v))
}

// Int64 reads a signed 64-bit value; ok is false when absent or mis-sized.
func (a AttrSet) Int64(id AttrID) (v int64, ok bool) {
	b, present := a.get(id)
	if !present || len(b) != 8 {
		return 0, false
	}
	return int64(binary.BigEndian.Uint64(b)), true
}

// PutFloat64s stores a []float64 under id, 8 bytes per element.
func (a *AttrSet) PutFloat64s(id AttrID, vs []float64) {
	s := a.slot(id, 8*len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint64(s[8*i:], math.Float64bits(v))
	}
}

// Float64s reads a []float64; ok is false when absent or mis-sized. An
// empty value decodes to a non-nil empty slice.
func (a AttrSet) Float64s(id AttrID) (vs []float64, ok bool) {
	b, present := a.get(id)
	if !present || len(b)%8 != 0 {
		return nil, false
	}
	vs = make([]float64, len(b)/8)
	for i := range vs {
		vs[i] = math.Float64frombits(binary.BigEndian.Uint64(b[8*i:]))
	}
	return vs, true
}

// PutInt64s stores a []int64 under id, 8 bytes per element.
func (a *AttrSet) PutInt64s(id AttrID, vs []int64) {
	s := a.slot(id, 8*len(vs))
	for i, v := range vs {
		binary.BigEndian.PutUint64(s[8*i:], uint64(v))
	}
}

// Int64s reads a []int64; ok is false when absent or mis-sized.
func (a AttrSet) Int64s(id AttrID) (vs []int64, ok bool) {
	b, present := a.get(id)
	if !present || len(b)%8 != 0 {
		return nil, false
	}
	vs = make([]int64, len(b)/8)
	for i := range vs {
		vs[i] = int64(binary.BigEndian.Uint64(b[8*i:]))
	}
	return vs, true
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// PutStrings stores a []string under id: a uvarint count, then each
// element uvarint-length-prefixed.
func (a *AttrSet) PutStrings(id AttrID, vs []string) {
	n := uvarintLen(uint64(len(vs)))
	for _, s := range vs {
		n += uvarintLen(uint64(len(s))) + len(s)
	}
	buf := a.slot(id, n)[:0]
	buf = binary.AppendUvarint(buf, uint64(len(vs)))
	for _, s := range vs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
}

// Strings reads a []string; ok is false when absent or malformed.
func (a AttrSet) Strings(id AttrID) (vs []string, ok bool) {
	b, present := a.get(id)
	if !present {
		return nil, false
	}
	count, sz := binary.Uvarint(b)
	if sz <= 0 || count > uint64(len(b)) {
		return nil, false
	}
	b = b[sz:]
	vs = make([]string, 0, count)
	for i := uint64(0); i < count; i++ {
		n, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b[sz:])) < n {
			return nil, false
		}
		b = b[sz:]
		vs = append(vs, string(b[:n]))
		b = b[n:]
	}
	return vs, true
}

// PutBytes stores a raw byte string under id (copied).
func (a *AttrSet) PutBytes(id AttrID, v []byte) {
	copy(a.slot(id, len(v)), v)
}

// Bytes reads a raw byte string; ok is false when absent. The returned
// slice aliases the set's storage.
func (a AttrSet) Bytes(id AttrID) (v []byte, ok bool) {
	return a.get(id)
}

// PutVec3 stores three float64 components under id.
func (a *AttrSet) PutVec3(id AttrID, x, y, z float64) {
	s := a.slot(id, 24)
	binary.BigEndian.PutUint64(s[0:8], math.Float64bits(x))
	binary.BigEndian.PutUint64(s[8:16], math.Float64bits(y))
	binary.BigEndian.PutUint64(s[16:24], math.Float64bits(z))
}

// Vec3 reads three float64 components; ok is false when absent or mis-sized.
func (a AttrSet) Vec3(id AttrID) (x, y, z float64, ok bool) {
	b, present := a.get(id)
	if !present || len(b) != 24 {
		return 0, 0, 0, false
	}
	x = math.Float64frombits(binary.BigEndian.Uint64(b[0:8]))
	y = math.Float64frombits(binary.BigEndian.Uint64(b[8:16]))
	z = math.Float64frombits(binary.BigEndian.Uint64(b[16:24]))
	return x, y, z, true
}
