package wire

import "sync"

// The shared AttrSet pool. Pooled wire buffers live here and in
// internal/cb only (enforced by the codvet nopool rule); consumer
// packages borrow through these helpers instead of rolling their own
// pools, so the ownership rule (package doc) stays auditable in one place.
//
// Ownership: the borrower owns the set from GetAttrSet until PutAttrSet.
// The cb layer serializes or clones attribute bytes before Update/
// UpdateContext returns, so a caller may release its set as soon as the
// send call comes back — that return is the publisher-side release point.
//
// The subscriber side has one too, kept in internal/cb because it knows
// who holds a reflection: a reflection that crossed a link owns the
// storage its frame was read into, cb.Reflection.Release hands that
// storage back, and a link reads a later frame into it. Only the consumer
// that took the reflection out of its subscription may call it, once,
// after its last read of Attrs — cod.Sub does right after decoding, the
// mailbox does for reflections it discards unseen. A consumer that never
// calls it loses nothing but the saving: each frame it receives is read
// into fresh storage (two allocations, sized to the frame) and collected.
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
