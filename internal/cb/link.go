package cb

import (
	"bufio"
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"codsim/internal/transport"
	"codsim/internal/wire"
)

// peerLink is one multiplexed stream between two CBs. Every virtual channel
// between the two nodes shares it (Fig. 2: the channel is a table-entry
// mapping, not a socket).
type peerLink struct {
	b    *Backbone
	conn transport.Conn

	// recv counts inbound frames. The read loop only adds to it; the
	// heartbeat sweep turns a count that moved into lastRecv, so carrying
	// a frame costs the link neither a lock nor a clock read.
	recv atomic.Uint64

	mu       sync.Mutex
	node     string    // remote node name; "" until its first frame arrives
	seen     uint64    // recv as the last sweep found it
	lastRecv time.Time // the last sweep that found recv moved (the link's start before any)
	dead     bool
	// free is the attribute storage consumers handed back with
	// Reflection.Release, which the read loop reads later frames into. It
	// grows to the link's peak of storage in flight and is not trimmed.
	free []wire.AttrSet

	wmu  sync.Mutex // serializes frame writes
	wbuf []byte     // send's encode buffer, guarded by wmu

	closeOnce sync.Once
}

// startLink wraps a connection and begins its read pump. peerName may be
// empty for accepted connections; it is learned from the first frame.
// Returns nil when the backbone is already closed (the conn is dropped).
func (b *Backbone) startLink(conn transport.Conn, peerName string) *peerLink {
	l := &peerLink{b: b, conn: conn, node: peerName, lastRecv: b.clock.Now()}
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		_ = conn.Close()
		return nil
	}
	b.links[l] = struct{}{}
	if peerName != "" {
		if _, exists := b.peers[peerName]; !exists {
			b.peers[peerName] = l
		}
	}
	b.wg.Add(1)
	b.mu.Unlock()
	go l.readLoop()
	return l
}

// registerLink records l as the link for node. An existing link for the
// same node is kept; the newer one simply also serves traffic (harmless
// duplicate from simultaneous dialing).
func (b *Backbone) registerLink(l *peerLink, node string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, exists := b.peers[node]; !exists {
		b.peers[node] = l
	}
}

// linkFor returns the established link to node, or nil.
func (b *Backbone) linkFor(node string) *peerLink {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peers[node]
}

// dialPeer returns an existing link to node or dials addr to create one.
func (b *Backbone) dialPeer(node, addr string) (*peerLink, error) {
	if l := b.linkFor(node); l != nil {
		return l, nil
	}
	conn, err := b.ifc.Dial(addr)
	if err != nil {
		return nil, err
	}
	l := b.startLink(conn, node)
	if l == nil {
		return nil, ErrClosed
	}
	return l, nil
}

// appendFramed appends one length-prefixed encoded frame onto buf (the
// stream framing). On error buf is returned truncated to its input length.
func appendFramed(buf []byte, f wire.Frame) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf, err := f.AppendEncode(buf)
	if err != nil {
		return buf[:start], err
	}
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf, nil
}

// send writes one frame to the link: encoded into the link's buffer, length
// prefix and body issued as a single conn.Write (one transport copy).
func (l *peerLink) send(f wire.Frame) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	buf, err := appendFramed(l.wbuf[:0], f)
	l.wbuf = buf[:0]
	if err != nil {
		return err
	}
	_, err = l.conn.Write(buf)
	return err
}

// pushScratch is a Publication's working set, kept across its pushes so
// the routing hot path allocates nothing: the update encoded once, plus a
// write batch that coalesces consecutive frames bound for the same link
// into one conn.Write (one syscall / transport copy for several frames).
//
// Ordering: every staged frame's out-channel keeps its sendMu held from
// seq assignment until flush, so no later seq on that channel can be
// assigned — let alone written — before the batch hits the wire; wire
// order stays seq order per channel. Deadlock safety: push iterates the
// class's channel slice in a fixed order, so concurrent pushes acquire
// sendMus monotonically (skips only move forward), and a push about to
// park on a credit window flushes (releasing every held sendMu) first.
type pushScratch struct {
	enc     []byte    // the update, framed; Channel and Seq are stamped per copy
	link    *peerLink // batch target; nil when the batch is empty
	buf     []byte    // the batch
	members []*outChannel
}

// encode frames f once for every remote channel of the push. Only
// Channel and Seq differ between the copies, and stage stamps those.
func (sc *pushScratch) encode(f wire.Frame) (err error) {
	sc.enc, err = appendFramed(sc.enc[:0], f)
	return err
}

// stage adds the encoded update, stamped with oc's channel ID and seq, to
// the batch bound for oc.link. The caller holds oc.sendMu, and it stays
// held until flush.
func (sc *pushScratch) stage(oc *outChannel, seq uint32) {
	start := len(sc.buf)
	sc.buf = append(sc.buf, sc.enc...)
	wire.SetChannelSeq(sc.buf[start+4:], oc.remoteChan, seq)
	sc.link = oc.link
	sc.members = append(sc.members, oc)
}

// flush writes the staged frames in a single conn.Write, releases every
// member channel's send slot, and returns the number of frames that made
// the wire (0 after a write error, which tears the link down).
func (sc *pushScratch) flush(b *Backbone) int {
	if sc.link == nil {
		return 0
	}
	l := sc.link
	l.wmu.Lock()
	_, err := l.conn.Write(sc.buf)
	l.wmu.Unlock()
	n := len(sc.members)
	for i, oc := range sc.members {
		oc.sendMu.Unlock()
		sc.members[i] = nil
	}
	sc.members = sc.members[:0]
	sc.buf = sc.buf[:0]
	sc.link = nil
	if err != nil {
		b.linkDown(l)
		return 0
	}
	b.stats.UpdatesSent.Add(int64(n))
	return n
}

// heard reports whether the link has carried a frame within
// heartbeatTimeout of now. Only the heartbeat sweep calls it: a sweep that
// finds the frame count moved stamps lastRecv with its own time, so a frame
// is dated up to one heartbeatInterval late and never early.
func (l *peerLink) heard(now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n := l.recv.Load(); n != l.seen {
		l.seen, l.lastRecv = n, now
	}
	return now.Sub(l.lastRecv) <= heartbeatTimeout
}

// peer returns the remote node name, which may still be empty.
func (l *peerLink) peer() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.node
}

// shutdown closes the underlying connection, unblocking readLoop.
func (l *peerLink) shutdown() {
	l.closeOnce.Do(func() { _ = l.conn.Close() })
}

// linkReadBuffer sizes the read loop's buffer: one conn.Read fetches every
// frame that fits (some sixty CraneStates), and a frame larger than the
// buffer is read straight into the frame's storage.
const linkReadBuffer = 16 << 10

// readLoop pumps inbound frames to the backbone until the link dies. The
// loop owns one buffered reader, one wire.Decoder and one Frame, reused
// for every inbound frame: a length prefix, its body and the frames
// queued behind them come out of a single conn.Read, the body is read
// into the frame's own storage and decoded where it lies, and the
// Node/LP/Class strings are the previous frame's. The decoded frame is
// only valid until the next iteration, under the ownership rule in package
// wire's doc: a handler copies what it keeps, except that handleUpdate
// moves the attributes, storage and all, into the reflection.
func (l *peerLink) readLoop() {
	defer l.b.wg.Done()
	dec := wire.NewDecoder()
	br := bufio.NewReaderSize(l.conn, linkReadBuffer)
	named := l.peer() != ""
	var f wire.Frame
	for {
		if err := dec.DecodeFrom(br, &f); err != nil {
			l.b.linkDown(l)
			return
		}
		l.recv.Add(1)
		if !named && f.Node != "" {
			named = true
			l.mu.Lock()
			l.node = f.Node
			l.mu.Unlock()
			l.b.registerLink(l, f.Node)
		}
		l.b.handleFrame(l, &f)
	}
}

// linkDown tears down a dead link: every virtual channel riding it is
// removed, and affected subscription entries fall back to fast
// re-broadcast so replacement publishers are found (§2.3 resilience).
func (b *Backbone) linkDown(l *peerLink) {
	l.mu.Lock()
	if l.dead {
		l.mu.Unlock()
		return
	}
	l.dead = true
	node := l.node
	l.mu.Unlock()

	l.shutdown()

	b.mu.Lock()
	delete(b.links, l)
	if node != "" && b.peers[node] == l {
		delete(b.peers, node)
	}
	// Publisher side: drop out-channels using this link, releasing any
	// publisher stalled on a reliable window.
	b.removeOutsLocked(func(oc *outChannel) bool { return oc.link == l })
	// Subscriber side: drop in-channels and re-arm fast broadcasting.
	for _, ic := range b.ins.view() {
		if ic.link == l {
			b.removeInLocked(ic)
		}
	}
	b.mu.Unlock()

	if !b.closed.Load() {
		b.stats.LinksDown.Inc()
	}
}

// addOutLocked indexes one publisher-side channel. The caller holds b.mu.
func (b *Backbone) addOutLocked(oc *outChannel) {
	chans, _ := b.outs.get(oc.class)
	// The capped slice makes append copy: the published list is shared
	// with pushes in flight.
	b.outs.set(oc.class, append(chans[:len(chans):len(chans)], oc))
	b.outKeys[oc.key] = oc
	b.outByChan[linkChan{link: oc.link, id: oc.remoteChan}] = oc
	b.channelsChangedLocked(oc.class)
}

// removeOutsLocked unindexes the publisher-side channels gone picks and
// releases any publisher stalled on their credit windows. The caller
// holds b.mu.
func (b *Backbone) removeOutsLocked(gone func(*outChannel) bool) {
	var changed []string // classes that lost a channel; told once the new table is published
	b.outs.edit(func(outs map[string][]*outChannel) {
		for class, chans := range outs {
			if !slices.ContainsFunc(chans, gone) {
				continue
			}
			kept := make([]*outChannel, 0, len(chans)) // never edited in place: see cowMap
			for _, oc := range chans {
				if !gone(oc) {
					kept = append(kept, oc)
					continue
				}
				delete(b.outKeys, oc.key)
				delete(b.outByChan, linkChan{link: oc.link, id: oc.remoteChan})
				oc.release()
			}
			if len(kept) == 0 {
				delete(outs, class)
			} else {
				outs[class] = kept
			}
			changed = append(changed, class)
		}
	})
	for _, class := range changed {
		b.channelsChangedLocked(class)
	}
}

// removeInLocked unindexes one subscriber-side channel, wakes the condition
// waits and has its subscription re-broadcast now, so a replacement
// publisher is found. The caller holds b.mu.
func (b *Backbone) removeInLocked(ic *inChannel) {
	b.ins.del(ic.id)
	delete(b.inSubKeys, ic.key)
	b.edgeLocked()
	if sub := ic.sub; sub != nil {
		delete(sub.channels, ic.id)
		sub.mbox.forgetChannel(ic.id)
		delete(sub.solicited, ic.key.peer) // the peer's next solicit is for a new channel
		sub.lastBroadcast = time.Time{}    // due immediately
		select {
		case b.kick <- struct{}{}:
		default:
		}
	}
}
