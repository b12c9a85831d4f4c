package transport

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// MemLAN is the simulated network segment. It is safe for concurrent use.
// The zero value is not usable; construct with NewMemLAN.
type MemLAN struct {
	mu    sync.Mutex
	cfg   memConfig
	rng   *rand.Rand
	nodes map[string]*memIface

	dropped  int64 // datagrams lost (simulated loss + full buffers)
	delivers int64 // datagrams delivered
}

type memConfig struct {
	latency time.Duration
	loss    float64 // datagram loss probability [0,1)
	seed    int64
}

// MemOption configures a MemLAN.
type MemOption func(*memConfig)

// WithLatency sets the one-way propagation delay for streams and datagrams.
func WithLatency(d time.Duration) MemOption {
	return func(c *memConfig) { c.latency = d }
}

// WithLoss sets the independent loss probability for broadcast datagrams.
// Streams stay reliable (the TCP analog).
func WithLoss(p float64) MemOption {
	return func(c *memConfig) { c.loss = p }
}

// WithSeed fixes the RNG seed of the loss draws, making runs repeatable.
func WithSeed(seed int64) MemOption {
	return func(c *memConfig) { c.seed = seed }
}

// NewMemLAN builds an in-memory network segment.
func NewMemLAN(opts ...MemOption) *MemLAN {
	cfg := memConfig{seed: 1}
	for _, o := range opts {
		o(&cfg)
	}
	return &MemLAN{
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.seed)),
		nodes: make(map[string]*memIface),
	}
}

var _ LAN = (*MemLAN)(nil)

// Attach implements LAN.
func (l *MemLAN) Attach(node string) (Interface, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, exists := l.nodes[node]; exists {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, node)
	}
	ifc := &memIface{
		lan:      l,
		name:     node,
		acceptCh: make(chan Conn, 128),
		dgramCh:  make(chan Datagram, recvBuffer),
		done:     make(chan struct{}),
	}
	l.nodes[node] = ifc
	return ifc, nil
}

// Dropped returns how many datagrams the segment has lost so far.
func (l *MemLAN) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Delivered returns how many datagrams reached a receiver buffer.
func (l *MemLAN) Delivered() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.delivers
}

const memAddrPrefix = "mem://"

// memIface is one node's NIC on a MemLAN.
type memIface struct {
	lan  *MemLAN
	name string

	acceptCh chan Conn
	dgramCh  chan Datagram
	done     chan struct{}

	closeOnce sync.Once
	dead      bool // guarded by lan.mu
}

var _ Interface = (*memIface)(nil)

func (i *memIface) Node() string { return i.name }
func (i *memIface) Addr() string { return memAddrPrefix + i.name }

// Dial implements Interface.
func (i *memIface) Dial(addr string) (Conn, error) {
	target, ok := strings.CutPrefix(addr, memAddrPrefix)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAddr, addr)
	}
	l := i.lan
	l.mu.Lock()
	defer l.mu.Unlock()
	if i.dead {
		return nil, ErrClosed
	}
	peer, ok := l.nodes[target]
	if !ok || peer.dead {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAddr, addr)
	}
	client, server := newMemPipe(i.Addr(), peer.Addr(), l.cfg.latency)
	select {
	case peer.acceptCh <- server:
		return client, nil
	default:
		return nil, fmt.Errorf("%w: %q", ErrBacklogFull, addr)
	}
}

// Accept implements Interface.
func (i *memIface) Accept() (Conn, error) {
	select {
	case c := <-i.acceptCh:
		return c, nil
	case <-i.done:
		return nil, ErrClosed
	}
}

// Broadcast implements Interface.
func (i *memIface) Broadcast(payload []byte) error {
	if len(payload) > MaxDatagram {
		return fmt.Errorf("%w: %d bytes", ErrPayloadLarge, len(payload))
	}
	l := i.lan
	l.mu.Lock()
	defer l.mu.Unlock()
	if i.dead {
		return ErrClosed
	}
	// One copy, made for the first receiver and shared by the rest: the
	// sender may reuse payload once Broadcast returns, and receivers only
	// read theirs (Datagram).
	var cp []byte
	for name, peer := range l.nodes {
		if name == i.name || peer.dead {
			continue
		}
		if l.cfg.loss > 0 && l.rng.Float64() < l.cfg.loss {
			l.dropped++
			continue
		}
		if cp == nil {
			cp = append(make([]byte, 0, len(payload)), payload...)
		}
		dg := Datagram{From: i.name, Payload: cp}

		if l.cfg.latency <= 0 {
			l.deliverLocked(peer, dg)
			continue
		}
		peerRef := peer
		time.AfterFunc(l.cfg.latency, func() {
			l.mu.Lock()
			defer l.mu.Unlock()
			l.deliverLocked(peerRef, dg)
		})
	}
	return nil
}

// deliverLocked pushes a datagram into a receiver buffer; the caller holds
// l.mu. Full buffers drop, as UDP would.
func (l *MemLAN) deliverLocked(peer *memIface, dg Datagram) {
	if peer.dead {
		l.dropped++
		return
	}
	select {
	case peer.dgramCh <- dg:
		l.delivers++
	default:
		l.dropped++
	}
}

// Recv implements Interface.
func (i *memIface) Recv() <-chan Datagram { return i.dgramCh }

// Close implements Interface.
func (i *memIface) Close() error {
	i.closeOnce.Do(func() {
		l := i.lan
		l.mu.Lock()
		i.dead = true
		delete(l.nodes, i.name)
		close(i.done)
		close(i.dgramCh) // safe: all sends happen under l.mu with dead check
		l.mu.Unlock()
	})
	return nil
}
