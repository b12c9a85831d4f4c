package wire

import "fmt"

// Layout is the wire form of a fixed run of attributes, worked out once so
// a set can be built or read without walking its records one by one. The
// run is one record per attribute, IDs strictly ascending, every value
// shorter than 0x80 bytes — so every record header is three bytes (ID,
// then a one-byte length) and every value sits at an offset from the start
// of the attribute section that never changes. The cod codec lays out a
// class's leading run of fixed-size fields this way.
//
// The layout holds the run's records with their headers written and their
// values zero (the template), and the ref table that locates the values
// in it. Both are read only, so one layout serves any number of
// goroutines.
//
//   - Writing. FillLayout replaces a set's contents with the template — one
//     copy of the records, one of the refs — and returns the section, for
//     the caller to store each value at Offset(i). The section is the set's
//     own storage: a set whose arena is borrowed from a decoded buffer gets
//     fresh storage first, as a Put into it would, so the buffer is never
//     written. It is valid until the next Put, which may move the arena;
//     Puts of IDs above the run append after it, and the set stays its own
//     encoding, byte for byte what the same values Put in order would give.
//   - Reading. MatchLayout reports whether a set opens with exactly the
//     run's records: the same IDs, each value at the same offset from the
//     section's start and of the same size. Then the i-th value is the
//     section at Offset(i), the same bytes Bytes reads for its ID, however
//     the set was made — built, indexed where a frame lay, or copied out of
//     one. A set that does not match is to be read by ID.
type Layout struct {
	tmpl []byte    // the run's records: headers written, values zero
	refs []attrRef // each value's place in tmpl
}

// NewLayout lays out one record per ids[i] carrying sizes[i] value bytes.
// It refuses IDs that do not strictly ascend and sizes outside [0, 0x80).
func NewLayout(ids []AttrID, sizes []int) (Layout, error) {
	if len(ids) != len(sizes) {
		return Layout{}, fmt.Errorf("wire: layout of %d IDs and %d sizes", len(ids), len(sizes))
	}
	var l Layout
	for i, id := range ids {
		n := sizes[i]
		if i > 0 && id <= ids[i-1] {
			return Layout{}, fmt.Errorf("wire: layout ID %d after %d", id, ids[i-1])
		}
		if n < 0 || n >= 0x80 {
			return Layout{}, fmt.Errorf("wire: layout value of %d bytes for ID %d", n, id)
		}
		l.tmpl = append(l.tmpl, byte(id>>8), byte(id), byte(n))
		start := uint32(len(l.tmpl))
		l.tmpl = append(l.tmpl, make([]byte, n)...)
		l.refs = append(l.refs, attrRef{id: id, start: start, end: start + uint32(n)})
	}
	return l, nil
}

// Offset returns where the i-th record's value starts in the section.
func (l *Layout) Offset(i int) int { return int(l.refs[i].start) }

// FillLayout empties the set and fills it with l's records, values zero,
// and returns the section to store the values in (see Layout).
func (a *AttrSet) FillLayout(l *Layout) []byte {
	arena := a.arena[:0]
	if a.borrowed {
		arena = make([]byte, 0, 2*len(l.tmpl))
	}
	*a = AttrSet{refs: append(a.refs[:0], l.refs...), arena: append(arena, l.tmpl...)}
	return a.arena
}

// MatchLayout reports whether the set opens with exactly l's records and,
// if it does, returns the section to load the values from (see Layout).
func (a *AttrSet) MatchLayout(l *Layout) ([]byte, bool) {
	if len(a.refs) < len(l.refs) {
		return nil, false
	}
	have, sec := a.refs[:len(l.refs)], a.sec
	for i, want := range l.refs {
		r := have[i]
		if r.id != want.id || r.start-sec != want.start || r.end-sec != want.end {
			return nil, false
		}
	}
	return a.arena[sec:], true
}
