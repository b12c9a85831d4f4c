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
// The set has one representation, the wire's: the arena holds the encoded
// attribute section from offset sec on — one [id u16][len uvarint][value]
// record per attribute — and a small ref table locates each record's
// value bytes. A set built in ascending ID order, which is how every
// producer in the tree builds (fom encoders, the cod codec), therefore
// encodes as its count plus one copy of the arena, and a frame whose IDs
// ascend decodes by pointing the arena at the frame and filling the refs:
// no value is copied either way (see the package doc for who owns the
// bytes then). Building a full CraneState costs at most two allocations
// (refs + arena), both amortized to zero when the set is Reset and
// refilled, as every scratch set on the hot path is. The zero value is a
// valid empty set.
//
// Determinism: the encoded form orders attributes by ascending ID,
// byte-identical to the historical map+sort encoder. A set that stops
// being its own encoding — an ID put below the tail, or a value re-put at
// another size, which moves it and strands the old bytes until Reset — is
// flagged and encoded ref by ref, sorted first, instead. One writer per
// frame is the concurrency contract — AttrSet has no internal locking.
type AttrSet struct {
	refs     []attrRef
	arena    []byte
	sec      uint32 // arena[sec:] is the attribute section; a decoded frame's header lies before it
	unsorted bool   // arena[sec:] is not the ascending encoding any more; encode sorts and walks the refs
	borrowed bool   // arena is the caller's buffer DecodeInto was given: copied before a write, dropped on Reset
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

// Reset empties the set, keeping both buffers' capacity for reuse (a
// borrowed arena is not the set's to reuse and is let go).
func (a *AttrSet) Reset() {
	arena := a.arena[:0]
	if a.borrowed {
		arena = nil
	}
	*a = AttrSet{refs: a.refs[:0], arena: arena}
}

// Clone returns a deep copy of the set, for whoever keeps attributes past
// the lifetime of the storage they sit in (see the package doc).
func (a AttrSet) Clone() AttrSet {
	var out AttrSet
	a.CloneInto(&out)
	return out
}

// CloneInto makes dst a deep copy of the set in dst's own storage, which
// grows only when it is too small, so a copier that recycles its sets
// copies without allocating once they have grown to its largest set. dst
// must not share storage with a.
func (a AttrSet) CloneInto(dst *AttrSet) {
	dst.Reset()
	if len(a.refs) == 0 {
		return
	}
	refs, arena := dst.refs[:0], dst.arena[:0]
	if cap(refs) < len(a.refs) {
		refs = make([]attrRef, len(a.refs))
	}
	refs = refs[:len(a.refs)]
	for i, r := range a.refs { // a frame's header is left behind
		refs[i] = attrRef{id: r.id, start: r.start - a.sec, end: r.end - a.sec}
	}
	if n := len(a.arena) - int(a.sec); cap(arena) < n {
		arena = make([]byte, n)
	} else {
		arena = arena[:n]
	}
	copy(arena, a.arena[a.sec:])
	*dst = AttrSet{refs: refs, arena: arena, unsorted: a.unsorted}
}

// detach takes the set's arena away from it, sized to n bytes, for a frame
// to be read into; adopt gives it back once the frame is decoded.
func (a *AttrSet) detach(n int) []byte {
	buf := a.arena
	if a.borrowed || cap(buf) < n {
		buf = make([]byte, n)
	}
	*a = AttrSet{refs: a.refs[:0]}
	return buf[:n]
}

// adopt makes the set the owner of buf, which the set was just decoded
// from: a set indexing buf keeps it at full capacity, an empty one keeps
// it for the next frame, and one that had to be copied out has its own
// arena already and lets buf go.
func (a *AttrSet) adopt(buf []byte) {
	switch {
	case a.borrowed:
		a.arena, a.borrowed = buf, false
	case len(a.refs) == 0:
		a.arena = buf[:0]
	}
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
// matches, else the value moves to fresh arena space, the old record is
// stranded until Reset and the set stops being its own encoding. New IDs
// append a record; an ID below the current tail does too, and marks the
// set for the encode-time sort.
//
// While the set is sorted, an ID above the tail cannot be a duplicate, so
// it appends without looking — the ascending build every encoder performs
// is O(n), not O(n²). Anything else (a repeat, an ID below the tail, any
// Put into an unsorted set) takes the scan.
func (a *AttrSet) slot(id AttrID, n int) []byte {
	if a.borrowed {
		a.arena, a.borrowed = append(make([]byte, 0, 2*len(a.arena)+n), a.arena...), false
	}
	if !a.unsorted && (len(a.refs) == 0 || id > a.refs[len(a.refs)-1].id) {
		return a.appendRecord(id, n)
	}
	for i := range a.refs {
		if a.refs[i].id == id {
			r := &a.refs[i]
			if int(r.end-r.start) != n {
				start := uint32(len(a.arena))
				a.arena = grow(a.arena, n)
				r.start, r.end = start, start+uint32(n)
				a.unsorted = true
			}
			return a.arena[r.start:r.end]
		}
	}
	if len(a.refs) > 0 && id < a.refs[len(a.refs)-1].id {
		a.unsorted = true
	}
	return a.appendRecord(id, n)
}

// appendRecord adds id's record at the arena's tail — ID, length, n value
// bytes for the caller to fill — and its ref.
func (a *AttrSet) appendRecord(id AttrID, n int) []byte {
	at, hdr := len(a.arena), 3
	if n >= 0x80 {
		hdr = 2 + uvarintLen(uint64(n))
	}
	a.arena = grow(a.arena, hdr+n)
	rec := a.arena[at : at+hdr+n]
	rec[0], rec[1], rec[2] = byte(id>>8), byte(id), byte(n)
	if n >= 0x80 {
		binary.PutUvarint(rec[2:], uint64(n))
	}
	start := uint32(at + hdr)
	a.refs = append(a.refs, attrRef{id: id, start: start, end: start + uint32(n)})
	return rec[hdr:]
}

func (a AttrSet) encodedSize() int {
	n := binary.MaxVarintLen32
	if !a.unsorted {
		return n + len(a.arena) - int(a.sec)
	}
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
// uint16 ID and a uvarint-length-prefixed value, ascending by ID. For the
// common ascending-built set that is the arena as it stands, one copy; an
// unsorted set has its refs sorted in place and is written record by
// record (the same bytes as the historical map encoder).
func (a AttrSet) append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(a.refs)))
	if !a.unsorted {
		return append(buf, a.arena[a.sec:]...)
	}
	sortRefs(a.refs)
	for _, r := range a.refs {
		buf = binary.BigEndian.AppendUint16(buf, uint16(r.id))
		v := a.arena[r.start:r.end]
		buf = binary.AppendUvarint(buf, uint64(len(v)))
		buf = append(buf, v...)
	}
	return buf
}

// readAttrSetInto parses the encoded set that starts at b[at:] into dst and
// returns the offset it ends at. A section in the form every encoder in
// the tree writes — strictly ascending IDs, minimal length prefixes — is
// indexed where it lies: dst's arena becomes b itself, borrowed. Anything
// else a peer may send, and every malformed section, goes through
// copyAttrs, record by record into dst's own arena.
func readAttrSetInto(dst *AttrSet, b []byte, at int) (int, error) {
	dst.Reset()
	count, sz := binary.Uvarint(b[at:])
	if sz <= 0 {
		return 0, ErrTruncated
	}
	at += sz
	if count == 0 {
		return at, nil
	}
	if count > MaxFrameSize/3 {
		return 0, fmt.Errorf("%w: %d attributes", ErrTooLarge, count)
	}
	if end, ok := dst.index(b, at, count); ok {
		return end, nil
	}
	return dst.copyAttrs(b, at, count)
}

// index makes b the set's arena if b[at:] opens with count records in
// canonical form, and reports where they end and whether it did; the set
// is left empty when not. Only refs are written: the decoded values are
// b's own bytes.
func (a *AttrSet) index(b []byte, at int, count uint64) (int, bool) {
	if uint64(len(b)-at) < 3*count {
		return 0, false // a record is three bytes at least
	}
	refs := a.refs[:0]
	if uint64(cap(refs)) < count {
		refs = make([]attrRef, 0, count)
	}
	sec, tail := at, -1
	for ; count > 0; count-- {
		if len(b)-at < 3 {
			return 0, false
		}
		id := int(binary.BigEndian.Uint16(b[at:]))
		n, sz := uint64(b[at+2]), 1
		if n >= 0x80 {
			n, sz = binary.Uvarint(b[at+2:])
			if sz <= 0 || n>>(7*(sz-1)) == 0 { // overflowing, cut short or padded
				return 0, false
			}
		}
		at += 2 + sz
		if id <= tail || uint64(len(b)-at) < n {
			return 0, false
		}
		refs = append(refs, attrRef{id: AttrID(id), start: uint32(at), end: uint32(at) + uint32(n)})
		at, tail = at+int(n), id
	}
	a.refs, a.arena, a.sec, a.borrowed = refs, b[:at:at], uint32(sec), true
	return at, true
}

// copyAttrs is the decoder for whatever index turns down: count records
// Put one at a time, so a repeated ID keeps its last value and descending
// IDs leave a set that still encodes ascending.
func (a *AttrSet) copyAttrs(b []byte, at int, count uint64) (int, error) {
	for ; count > 0; count-- {
		if len(b)-at < 2 {
			return 0, ErrTruncated
		}
		id := AttrID(binary.BigEndian.Uint16(b[at:]))
		n, sz := binary.Uvarint(b[at+2:])
		if sz <= 0 {
			return 0, ErrTruncated
		}
		at += 2 + sz
		if uint64(len(b)-at) < n {
			return 0, ErrTruncated
		}
		copy(a.slot(id, int(n)), b[at:at+int(n)])
		at += int(n)
	}
	return at, nil
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
