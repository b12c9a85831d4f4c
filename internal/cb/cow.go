package cb

import (
	"maps"
	"sync/atomic"
)

// cowMap is a routing table the per-frame paths read without a lock: get
// and view load the current version, and writers — serialized by
// Backbone.mu — publish a modified copy instead of changing it. Channels
// come and go a few times a session and are looked up once per frame, so
// the copy is paid where it is rare. A version, once published, is never
// written again; that extends to slice values, which writers replace
// rather than edit.
type cowMap[K comparable, V any] struct {
	cur atomic.Pointer[map[K]V]
}

// view returns the current version, for reading only.
func (c *cowMap[K, V]) view() map[K]V {
	if m := c.cur.Load(); m != nil {
		return *m
	}
	return nil
}

func (c *cowMap[K, V]) get(k K) (V, bool) {
	v, ok := c.view()[k]
	return v, ok
}

// edit publishes a copy of the map with change applied. The caller holds
// Backbone.mu.
func (c *cowMap[K, V]) edit(change func(map[K]V)) {
	m := maps.Clone(c.view())
	if m == nil {
		m = make(map[K]V)
	}
	change(m)
	c.cur.Store(&m)
}

func (c *cowMap[K, V]) set(k K, v V) { c.edit(func(m map[K]V) { m[k] = v }) }
func (c *cowMap[K, V]) del(k K)      { c.edit(func(m map[K]V) { delete(m, k) }) }
