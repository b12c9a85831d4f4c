package wire

import "sync"

// The shared AttrSet pool. Pooled wire buffers live here and in
// internal/cb only (enforced by the codvet nopool rule); consumer
// packages borrow through these helpers instead of rolling their own
// pools, so the ownership rule stays auditable in one place.
//
// Ownership: the borrower owns the set from GetAttrSet until PutAttrSet.
// The cb layer copies or serializes attribute bytes before Update/
// UpdateContext returns (copy-at-boundary rule), so a caller may release
// its set as soon as the send call comes back — that return is the
// publisher-side release point.
//
// The subscriber side has one too, kept in internal/cb because it knows
// who holds a reflection: cb.Reflection.Release hands a delivered
// reflection's attribute storage back, and the next reflection off a link
// is copied into it (AttrSet.CloneInto) instead of into a fresh Clone.
// Only the consumer that took the reflection out of its subscription may
// call it, once, after its last read of Attrs — cod.Sub does right after
// decoding, the mailbox does for reflections it discards unseen. A
// consumer that never calls it loses nothing but the saving: its
// reflections are cloned (two allocations each) and collected, exactly as
// before Release existed.
var attrSetPool = sync.Pool{
	New: func() any {
		a := NewAttrSet(16)
		return &a
	},
}

// GetAttrSet borrows an empty AttrSet from the pool.
func GetAttrSet() *AttrSet {
	return attrSetPool.Get().(*AttrSet)
}

// PutAttrSet resets a and returns it to the pool. The caller must not
// touch a (or anything aliasing its arena) afterwards.
func PutAttrSet(a *AttrSet) {
	a.Reset()
	attrSetPool.Put(a)
}
