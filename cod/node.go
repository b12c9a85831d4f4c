package cod

import (
	"fmt"
	"net"
	"strconv"
	"sync"

	"codsim/internal/cb"
	"codsim/internal/clock"
	"codsim/internal/transport"
)

// LAN is the network segment a federation runs on. The SDK re-exports the
// transport abstraction so callers never import internal packages:
// NewMemLAN builds the simulated segment, WithUDP a real-socket one.
type LAN = transport.LAN

// Stats re-exports the backbone's instrumentation counters.
type Stats = cb.Stats

// TableEntry re-exports one row of a Publication or Subscription table.
type TableEntry = cb.TableEntry

// ChannelTally re-exports one virtual channel's delivery/loss accounting
// within a TableEntry, so telemetry consumers (internal/obs, external
// harnesses) never import the backbone internals.
type ChannelTally = cb.ChannelTally

// NewMemLAN creates an in-memory LAN segment for nodes of one process;
// harnesses inside the module may impair it with transport options
// (latency, loss, ...). Pass it to
// every node of the federation via WithLAN, or let a Federation manage
// the sharing.
func NewMemLAN(opts ...transport.MemOption) LAN { return transport.NewMemLAN(opts...) }

// NewUDPLAN joins a real UDP/TCP segment of slots consecutive ports
// starting at basePort on host, returning the LAN handle directly, for
// callers that hand one segment to several nodes or to sim.Config.
func NewUDPLAN(host string, basePort, slots int) (LAN, error) {
	return transport.NewUDPLAN(host, basePort, slots)
}

// defaultLAN is the process-wide segment used by nodes created without an
// explicit transport option, so the two-line quickstart just works.
var defaultLAN = struct {
	once sync.Once
	lan  LAN
}{}

func processLAN() LAN {
	defaultLAN.once.Do(func() { defaultLAN.lan = transport.NewMemLAN() })
	return defaultLAN.lan
}

// nodeConfig accumulates the functional options of NewNode.
type nodeConfig struct {
	lan    LAN
	lanErr error
	cfg    cb.Config
}

// Option configures a Node (and, through a Federation's defaults, every
// node of a federation).
type Option func(*nodeConfig)

// WithLAN attaches the node to an existing LAN segment — an in-memory one
// from NewMemLAN or any other transport.LAN the caller already holds.
// Every node of the federation must share the same segment. A nil lan
// falls back to the process-wide default in-memory segment.
func WithLAN(lan LAN) Option {
	return func(c *nodeConfig) { c.lan = lan }
}

// defaultUDPSlots is the segment size WithUDP assumes: the paper's rack
// held eight computers, sixteen leaves room to double it.
const defaultUDPSlots = 16

// WithUDP attaches the node to a real UDP/TCP segment. addr is
// "host:basePort"; the segment spans defaultUDPSlots consecutive UDP
// ports starting at basePort, one per computer. Every process of the
// federation must name the same segment.
func WithUDP(addr string) Option {
	return func(c *nodeConfig) {
		host, portStr, err := net.SplitHostPort(addr)
		if err != nil {
			c.lanErr = fmt.Errorf("cod: WithUDP %q: %w", addr, err)
			return
		}
		base, err := strconv.Atoi(portStr)
		if err != nil {
			c.lanErr = fmt.Errorf("cod: WithUDP %q: bad port: %w", addr, err)
			return
		}
		lan, err := transport.NewUDPLAN(host, base, defaultUDPSlots)
		if err != nil {
			c.lanErr = fmt.Errorf("cod: WithUDP %q: %w", addr, err)
			return
		}
		c.lan = lan
	}
}

// WithClock runs the node's backbone, and what runs on it, on c instead of
// the wall clock: a test hands every node of a federation one
// clock.Manual and moves time with Advance.
func WithClock(c clock.Clock) Option {
	return func(n *nodeConfig) { n.cfg.Clock = c }
}

// Node is one computer of the Cluster Of Desktops: a handle on its
// Communication Backbone through which local logical processes publish
// and subscribe. Create it with NewNode or Federation.Node and release it
// with Close. All methods are safe for concurrent use.
type Node struct {
	bb *cb.Backbone
}

// NewNode attaches a node to the LAN under the given unique name. Without
// a transport option the node joins a process-wide in-memory segment, so
// nodes of a quick single-process program find each other with no setup.
func NewNode(name string, opts ...Option) (*Node, error) {
	var c nodeConfig
	for _, o := range opts {
		o(&c)
	}
	return newNode(name, &c)
}

func newNode(name string, c *nodeConfig) (*Node, error) {
	if c.lanErr != nil {
		return nil, c.lanErr
	}
	if c.lan == nil {
		c.lan = processLAN()
	}
	bb, err := cb.New(c.lan, name, c.cfg)
	if err != nil {
		return nil, err
	}
	return &Node{bb: bb}, nil
}

// Name returns the node's unique name on the segment.
func (n *Node) Name() string { return n.bb.Node() }

// Addr returns the node's dialable stream address.
func (n *Node) Addr() string { return n.bb.Addr() }

// Stats returns the node's live instrumentation counters. The pointer
// stays valid for the node's lifetime.
func (n *Node) Stats() *Stats { return n.bb.Stats() }

// Tables returns snapshots of the node's Publication and Subscription
// tables, for monitoring.
func (n *Node) Tables() (pubs, subs []TableEntry) { return n.bb.Tables() }

// Backbone exposes the underlying Communication Backbone for the internal
// simulator modules (displaysync, sim) that predate the SDK.
// New code should stay on the typed Publish/Subscribe surface.
func (n *Node) Backbone() *cb.Backbone { return n.bb }

// Close tears down every registration and channel of the node and
// detaches it from the LAN. Close is idempotent.
func (n *Node) Close() error { return n.bb.Close() }
