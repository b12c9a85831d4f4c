package cod

import (
	"errors"
	"fmt"
	"sync"
)

// ErrFederationClosed reports node creation on a closed federation.
var ErrFederationClosed = errors.New("cod: federation closed")

// Federation groups the nodes of one simulator instance: it hands every
// node the same LAN segment and tears the whole cluster down on one
// Close.
type Federation struct {
	defaults []Option

	mu       sync.Mutex
	base     nodeConfig // defaults resolved once, so all nodes share one LAN
	resolved bool
	nodes    []*Node
	closed   bool
}

// NewFederation creates an empty federation. The defaults apply to every
// node it creates (before the node's own options); when none of them
// names a transport, the federation shares one in-memory LAN across its
// nodes.
func NewFederation(defaults ...Option) *Federation {
	return &Federation{defaults: defaults}
}

// Node creates a node named name on the federation's segment and tracks
// it for Close. Per-node options override the federation defaults —
// except the segment itself, which the defaults establish exactly once
// (a WithUDP default must not build a fresh LAN per node, or the
// segment's duplicate-name bookkeeping would be lost).
func (f *Federation) Node(name string, opts ...Option) (*Node, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrFederationClosed
	}
	if !f.resolved {
		f.resolved = true
		for _, o := range f.defaults {
			o(&f.base)
		}
		if f.base.lan == nil && f.base.lanErr == nil {
			f.base.lan = NewMemLAN()
		}
	}
	c := f.base
	f.mu.Unlock()

	for _, o := range opts {
		o(&c)
	}

	n, err := newNode(name, &c)
	if err != nil {
		return nil, err
	}

	f.mu.Lock()
	if f.closed { // raced with Close: don't leak the node
		f.mu.Unlock()
		_ = n.Close()
		return nil, ErrFederationClosed
	}
	f.nodes = append(f.nodes, n)
	f.mu.Unlock()
	return n, nil
}

// Nodes returns the federation's live nodes in creation order.
func (f *Federation) Nodes() []*Node {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*Node(nil), f.nodes...)
}

// Close stops every node of the federation (newest first, so late joiners
// release channels before the nodes they discovered) and reports the
// joined node-close errors. Close is idempotent.
func (f *Federation) Close() error {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil
	}
	f.closed = true
	nodes := f.nodes
	f.nodes = nil
	f.mu.Unlock()

	var errs []error
	for i := len(nodes) - 1; i >= 0; i-- {
		if err := nodes[i].Close(); err != nil {
			errs = append(errs, fmt.Errorf("close %s: %w", nodes[i].Name(), err))
		}
	}
	return errors.Join(errs...)
}
