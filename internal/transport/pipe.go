package transport

import (
	"io"
	"sync"
	"time"
)

// linkParams model one direction of a simulated link.
type linkParams struct {
	latency   time.Duration // propagation delay
	jitter    time.Duration // max extra random delay (resolved by caller)
	bandwidth float64       // bytes/second; 0 = infinite
}

// pipeHalf is one direction of an in-memory stream: a byte ring the writer
// copies into and the reader copies out of, so a steady stream allocates
// nothing and a read takes every byte that has arrived, however many
// writes produced them.
//
// Delay is modelled by arrival marks, not by a copier goroutine: a write
// on a link with latency, jitter or bandwidth records (byte count,
// arrival time), and the reader counts a mark's bytes as arrived once its
// time has come. An ideal link has nothing to wait for, so its writes add
// to arrived directly — no mark, no clock read on either side.
type pipeHalf struct {
	mu   sync.Mutex
	cond *sync.Cond

	ring    []byte // len(ring) is the capacity: 0 or a power of two
	head    int    // index of the oldest unread byte
	n       int    // unread bytes, arrived or still in flight
	arrived int    // unread bytes whose arrival time has passed
	marks   []arrivalMark

	busyUntil time.Time // link serialization horizon
	lastArr   time.Time // monotone arrival guard (jitter must not reorder)
	closed    bool
	timed     bool // the link has latency, jitter or bandwidth
	params    linkParams
	// jitterFn returns the next jitter sample; nil means no jitter.
	jitterFn func() time.Duration
}

// arrivalMark says that the next n in-flight bytes arrive at at.
type arrivalMark struct {
	n  int
	at time.Time
}

const (
	// minRing is the first capacity a ring takes.
	minRing = 4 << 10
	// maxIdleRing is the most capacity a drained ring keeps: a burst grows
	// the ring as far as it must, and the read that empties it gives back
	// anything above this.
	maxIdleRing = 1 << 20
)

func newPipeHalf(p linkParams, jitterFn func() time.Duration) *pipeHalf {
	h := &pipeHalf{
		params:   p,
		jitterFn: jitterFn,
		timed:    p.latency > 0 || p.bandwidth > 0 || jitterFn != nil,
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

// write copies data into the ring and, on a timed link, marks when it
// arrives.
func (h *pipeHalf) write(data []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return 0, io.ErrClosedPipe
	}
	if len(data) == 0 {
		return 0, nil
	}
	h.put(data)
	if !h.timed {
		h.arrived += len(data)
		h.cond.Broadcast()
		return len(data), nil
	}

	now := time.Now()
	depart := now
	if h.busyUntil.After(depart) {
		depart = h.busyUntil
	}
	if h.params.bandwidth > 0 {
		tx := time.Duration(float64(len(data)) / h.params.bandwidth * float64(time.Second))
		depart = depart.Add(tx)
	}
	h.busyUntil = depart

	arrive := depart.Add(h.params.latency)
	if h.jitterFn != nil {
		arrive = arrive.Add(h.jitterFn())
	}
	if arrive.Before(h.lastArr) { // keep FIFO despite jitter
		arrive = h.lastArr
	}
	h.lastArr = arrive
	h.marks = append(h.marks, arrivalMark{n: len(data), at: arrive})

	if wait := arrive.Sub(now); wait > 0 {
		time.AfterFunc(wait, h.cond.Broadcast)
	} else {
		h.cond.Broadcast()
	}
	return len(data), nil
}

// put appends data to the ring, growing it to the next power of two that
// holds everything unread. Caller holds h.mu.
func (h *pipeHalf) put(data []byte) {
	if need := h.n + len(data); need > len(h.ring) {
		size := max(len(h.ring), minRing)
		for size < need {
			size *= 2
		}
		grown := make([]byte, size)
		h.peek(grown[:h.n])
		h.ring, h.head = grown, 0
	}
	tail := (h.head + h.n) & (len(h.ring) - 1)
	if c := copy(h.ring[tail:], data); c < len(data) {
		copy(h.ring, data[c:])
	}
	h.n += len(data)
}

// peek copies the oldest len(p) unread bytes into p without consuming
// them. Caller holds h.mu and guarantees len(p) <= h.n.
func (h *pipeHalf) peek(p []byte) {
	if c := copy(p, h.ring[h.head:]); c < len(p) {
		copy(p[c:], h.ring)
	}
}

// read copies arrived bytes into p — all of them if p has the room —
// blocking until some arrive or the half is closed and drained.
func (h *pipeHalf) read(p []byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if len(h.marks) > 0 {
			h.land(time.Now())
		}
		if h.arrived > 0 {
			break
		}
		if h.n == 0 && h.closed {
			return 0, io.EOF
		}
		// Nothing yet, or the head bytes are still in flight and their
		// AfterFunc will wake us.
		h.cond.Wait()
	}
	k := min(len(p), h.arrived)
	h.peek(p[:k])
	h.head = (h.head + k) & (len(h.ring) - 1)
	h.n -= k
	h.arrived -= k
	if h.n == 0 {
		h.head = 0
		if len(h.ring) > maxIdleRing {
			h.ring = nil
		}
	}
	return k, nil
}

// land counts the marks due by now as arrived. Caller holds h.mu.
func (h *pipeHalf) land(now time.Time) {
	i := 0
	for i < len(h.marks) && !h.marks[i].at.After(now) {
		h.arrived += h.marks[i].n
		i++
	}
	h.marks = h.marks[:copy(h.marks, h.marks[i:])]
}

func (h *pipeHalf) close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	h.cond.Broadcast()
}

// memConn is one endpoint of an in-memory duplex stream.
type memConn struct {
	readHalf  *pipeHalf
	writeHalf *pipeHalf
	local     string
	remote    string
	closeOnce sync.Once
}

var _ Conn = (*memConn)(nil)

func (c *memConn) Read(p []byte) (int, error)  { return c.readHalf.read(p) }
func (c *memConn) Write(p []byte) (int, error) { return c.writeHalf.write(p) }
func (c *memConn) LocalAddr() string           { return c.local }
func (c *memConn) RemoteAddr() string          { return c.remote }

// Close shuts both directions: the peer's pending reads drain then hit EOF,
// and writes from either side fail.
func (c *memConn) Close() error {
	c.closeOnce.Do(func() {
		c.readHalf.close()
		c.writeHalf.close()
	})
	return nil
}

// newMemPipe builds a connected pair of stream endpoints with the given link
// parameters applied independently to each direction.
func newMemPipe(localAddr, remoteAddr string, p linkParams, jitterFn func() time.Duration) (client, server *memConn) {
	aToB := newPipeHalf(p, jitterFn)
	bToA := newPipeHalf(p, jitterFn)
	client = &memConn{readHalf: bToA, writeHalf: aToB, local: localAddr, remote: remoteAddr}
	server = &memConn{readHalf: aToB, writeHalf: bToA, local: remoteAddr, remote: localAddr}
	return client, server
}
