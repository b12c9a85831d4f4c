// Package transport abstracts the local-area network that interconnects the
// Cluster Of Desktop computers (COD). The Communication Backbone (package
// cb) talks only to the interfaces defined here, so the same protocol code
// runs over two back-ends:
//
//   - MemLAN: an in-memory network whose impairments are a one-way
//     latency (WithLatency) and datagram loss (WithLoss), the loss draws
//     deterministic under a seed (WithSeed). This stands in for the
//     paper's eight-PC Ethernet segment and makes every experiment
//     repeatable.
//   - UDPLAN: real UDP datagrams and TCP streams on the loopback device,
//     one UDP port per "computer", proving the protocol runs on actual
//     sockets.
//
// The model mirrors a 2001-era switched LAN: unreliable broadcast datagrams
// (discovery traffic) plus reliable point-to-point streams (virtual-channel
// traffic).
//
// A MemLAN stream direction is one byte ring (pipe.go): Write copies into
// it, growing it by doubling when a backlog needs the room, and Read takes
// every byte that has arrived, so a reader behind a burst of small frames
// catches up in one call. A steady stream allocates nothing; a ring that
// a burst pushed past 1 MB gives the memory back when it drains. Link
// delay is kept as arrival marks — (byte count, arrival time) per write —
// and only on a link configured with latency: the reader counts a mark's
// bytes as arrived once its time has passed. An ideal link has nothing to
// time, so neither side of it reads the clock. Writes
// never block, as before: a MemLAN pipe has no send-buffer limit, and a
// publisher that must not outrun its reader needs a Reliable channel.
package transport

import (
	"errors"
	"io"
)

// Datagram is one broadcast message as received by a node. Its payload is
// the receiver's to read for as long as it likes, never to write: on a
// MemLAN every receiver of one broadcast reads the same copy.
type Datagram struct {
	From    string // sender node name
	Payload []byte // application bytes: the receiver may keep them but must not write them
}

// Conn is a reliable, ordered byte stream between two nodes (the TCP
// analog).
type Conn interface {
	io.ReadWriteCloser
	// LocalAddr returns the stream address of this side.
	LocalAddr() string
	// RemoteAddr returns the stream address of the peer.
	RemoteAddr() string
}

// Interface is one node's attachment to the LAN: a stream endpoint plus a
// broadcast datagram socket, the software analog of the PC's NIC.
type Interface interface {
	// Node returns the node name this interface was attached with.
	Node() string
	// Addr returns the dialable stream address of this node.
	Addr() string
	// Dial opens a stream connection to another node's Addr.
	Dial(addr string) (Conn, error)
	// Accept waits for the next inbound stream connection. It returns
	// ErrClosed after Close.
	Accept() (Conn, error)
	// Broadcast sends a datagram to every other node on the segment.
	// Delivery is best-effort: receivers with full buffers drop it, and a
	// simulated LAN may lose it.
	Broadcast(payload []byte) error
	// Recv returns the channel of received broadcast datagrams. The
	// channel is closed by Close.
	Recv() <-chan Datagram
	// Close detaches from the LAN, closing Accept and Recv.
	Close() error
}

// LAN is a network segment nodes can attach to.
type LAN interface {
	// Attach joins the segment under the given unique node name.
	Attach(node string) (Interface, error)
}

// Errors shared by the LAN implementations.
var (
	ErrClosed       = errors.New("transport: interface closed")
	ErrDuplicate    = errors.New("transport: node name already attached")
	ErrUnknownAddr  = errors.New("transport: unknown address")
	ErrSegmentFull  = errors.New("transport: segment is full")
	ErrBacklogFull  = errors.New("transport: accept backlog full")
	ErrPayloadLarge = errors.New("transport: datagram payload too large")
)

// MaxDatagram bounds a broadcast payload, matching a jumbo-less Ethernet
// segment closely enough for discovery traffic.
const MaxDatagram = 8 << 10

// recvBuffer is the per-node datagram buffer depth. Matches a small socket
// receive buffer: discovery bursts beyond it are dropped, as UDP would.
const recvBuffer = 256
