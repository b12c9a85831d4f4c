// Package cb implements the Communication Backbone (CB), the paper's core
// contribution (§2): a transparent publish/subscribe communication layer run
// on every computer of the Cluster Of Desktop computers (COD).
//
// Logical Processes (LPs) register with their resident CB as publishers or
// subscribers of object classes. The CB records them in its Publication and
// Subscription tables and builds virtual channels between matching entries.
// LPs on the same computer are matched through an in-process fast path; LPs
// across the network through the initialization protocol below.
//
// # Initialization and dynamic join (§2.3), as implemented
//
// Every step of a join is an event. The protocol's periods are loss
// repair: they carry a join only when a broadcast datagram was dropped or
// a peer died without a word.
//
//  1. SubscribeObjectClass broadcasts SUBSCRIPTION itself, before it
//     returns. A publisher's CB that hears it answers ACKNOWLEDGE over a
//     stream link to the subscriber.
//  2. The subscriber answers CHANNEL CONNECTION with the channel ID and its
//     delivery policy; the publisher records its half and confirms with a
//     second ACKNOWLEDGE, after which the subscription counts as matched.
//  3. PublishObjectClass broadcasts PUBLICATION, a solicit. A CB holding a
//     subscription of the class with no channel (built or building) from
//     the soliciting node says that entry's SUBSCRIPTION again at once, so
//     a late publisher — the paper's dynamic join, a batch worker added to
//     a running sweep — is matched in one round trip. When the two CBs
//     already share a link the entry tells the solicitor alone, over it;
//     when they do not, an unmatched entry re-broadcasts, and a matched
//     one is left to its refresh period, because it is being served and
//     hurrying would cost a broadcast from every subscriber of the class.
//     A computer that subscribes before it publishes has been dialed by
//     its publishers when its solicits arrive, and is answered this way
//     (dist's coordinator and workers, displaysync's displays).
//     An entry answers one solicit per peer until its next periodic
//     broadcast or until a channel from that peer has come and gone. So
//     the datagrams of a boot that builds one computer at a time are
//     counted by its topology: one SUBSCRIPTION per subscription, one
//     PUBLICATION per publication, one more SUBSCRIPTION per (unmatched
//     subscription, computer that began publishing its class before the
//     two had a link). PUBLICATION exists only as a datagram; a build
//     without the kind drops it undecoded.
//  4. A channel that goes away (a scoped BYE, a dead link) makes its
//     subscription due at once and wakes the timer loop, which re-broadcasts
//     without waiting for its tick.
//  5. Both halves have an edge: Subscription.WaitMatchedContext and
//     Publication.WaitChannelsContext sleep until a channel set changes,
//     and Publication.NotifyC hands the same edge to select loops (the
//     dist worker beats, and the coordinator re-announces, when their
//     publications gain a channel).
//
// Repair only: an unmatched subscription is re-broadcast every 50 ms and a
// matched one every 500 ms, which finds a publisher whose solicit or whose
// subscriber's answer was lost; a silent link is reaped after 1 s. One
// race is left to the repair period: a subscription closed and registered
// again at once may reach the publisher ahead of its own BYE, find the old
// channel still recorded, and be answered only at its next broadcast.
//
// # The per-frame path
//
// A steady publish→reflect takes no global lock, reads no clock and, for a
// consumer that releases its reflections, allocates nothing, in process or
// across a link. Publication push encodes an update once and stamps
// Channel and Seq into a copy per remote channel, and copies it for each
// in-process subscriber into storage an earlier in-process reflection
// handed back; the class's channel list and the channel-ID table are
// copy-on-write (cowMap), read without Backbone.mu. A link's read loop
// decodes from a buffered reader, so a length prefix, its body and the
// frames queued behind them cost one conn.Read, and it reads each update
// into storage a consumer of that link handed back when there is some.
// One ownership rule covers both: a reflection owns its Attrs' storage
// until Reflection.Release hands it back to its source. Every reused
// buffer has one owner: a link keeps the storage handed back to it and the
// buffer its control frames are encoded into, the backbone keeps the
// in-process storage handed back and its broadcast buffer, the timer loop
// keeps the scratch its beacons are built in, and a Publication keeps the
// scratch its pushes encode and batch in. The datagram loop decodes into
// one reused frame through its own interning decoder, so a steady
// federation's discovery refreshes and heartbeats allocate nothing on the
// backbone either; what is left is the transport's copy of each datagram.
//
// Liveness is counted, not stamped: the read loop increments a per-link
// frame counter, and the heartbeat sweep — every 250 ms — dates a link
// whose counter moved with the sweep's own time. A frame is therefore
// dated up to one sweep late and never early, so a silent peer is reaped
// between 1 s and 1.5 s after its last frame, and a peer that sends
// anything at all in every 250 ms is never reaped.
//
// Credits and heartbeats are as they were, frame for frame: a reliable
// subscriber still grants on its first consumption and every quarter
// window, as a HEARTBEAT carrying AttrCreditCounts, and the periodic
// beacon still repeats every channel's count. They are already off the
// per-frame path — about one credit frame per 256 updates at a window of
// 1024 — and any new frame kind or field on a link would break
// mixed-version federations for nothing measurable.
package cb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"codsim/internal/clock"
	"codsim/internal/metrics"
	"codsim/internal/transport"
	"codsim/internal/wire"
)

// Errors returned by the backbone.
//
// Note: Update deliberately succeeds when a class has no channels yet —
// publishing into the void is legal pub/sub, and modules start pushing
// before discovery completes. Callers that want "did anyone hear me"
// semantics use the cod SDK, whose typed Update reports cod.ErrNoSubscribers
// on the no-channel path.
var (
	ErrClosed       = errors.New("cb: backbone closed")
	ErrDuplicateLP  = errors.New("cb: LP already registered for class")
	ErrUnknownClass = errors.New("cb: class name must not be empty")
	ErrUnknownLP    = errors.New("cb: LP name must not be empty")
	ErrHandleClosed = errors.New("cb: registration handle closed")
	// ErrWindowFull reports an Update that found at least one reliable
	// channel's credit window exhausted: that subscriber got nothing
	// (every other channel was delivered to), and retrying before it
	// consumes will fail the same way. UpdateContext blocks instead.
	ErrWindowFull = errors.New("cb: reliable send window full")
)

// The protocol's repair periods (package doc): SUBSCRIPTION re-broadcast
// while an entry is unmatched and once it is matched, the link beacon and
// sweep, and the silence after which a link is reaped. The timer loop
// ticks at a fifth of the broadcast period.
const (
	broadcastInterval = 50 * time.Millisecond
	refreshInterval   = 500 * time.Millisecond
	heartbeatInterval = 250 * time.Millisecond
	heartbeatTimeout  = 4 * heartbeatInterval
	tickInterval      = broadcastInterval / 5
)

// Config configures a backbone.
type Config struct {
	// Clock is what the backbone and displaysync, dist and sim above it
	// read time from; nil means clock.Wall.
	Clock clock.Clock
}

// Stats exposes the backbone's instrumentation counters.
type Stats struct {
	// BroadcastsSent counts SUBSCRIPTION datagrams sent.
	BroadcastsSent metrics.Counter
	// SolicitsSent counts PUBLICATION datagrams sent, one per
	// PublishObjectClass.
	SolicitsSent metrics.Counter
	// ChannelsUp counts virtual channels fully established (both sides).
	ChannelsUp metrics.Counter
	// UpdatesSent counts UPDATE frames pushed by local publishers
	// (per channel, so one Update over three channels counts three).
	UpdatesSent metrics.Counter
	// ReflectsDelivered counts reflections delivered to local LPs.
	ReflectsDelivered metrics.Counter
	// MailboxDropped counts reflections dropped at full drop-oldest
	// mailboxes (per-channel attribution is in Backbone.Tables).
	MailboxDropped metrics.Counter
	// Conflations counts latest-value coalescings: a newer reflection
	// replaced a buffered one of the same channel at a full mailbox.
	Conflations metrics.Counter
	// CreditStalls counts sends that found a reliable channel's credit
	// window exhausted (the publisher blocked or got ErrWindowFull).
	CreditStalls metrics.Counter
	// CreditsGranted counts credit grants issued by local subscribers
	// (immediate CREDIT frames and local fast-path grants; heartbeat
	// piggybacks are not counted).
	CreditsGranted metrics.Counter
	// LinksDown counts peer links declared dead.
	LinksDown metrics.Counter
	// EstablishLatency records registration→first-channel latency per
	// subscription entry, in seconds.
	EstablishLatency metrics.Summary
}

// Backbone is one computer's Communication Backbone. Create it with New and
// release it with Close. All methods are safe for concurrent use.
type Backbone struct {
	node  string
	ifc   transport.Interface
	addr  string // ifc.Addr(), which every SUBSCRIPTION carries
	clock clock.Clock

	mu        sync.Mutex
	pubs      map[classLP]*Publication
	subs      map[classLP]*Subscription
	outKeys   map[chanKey]*outChannel  // dedup of pub-side channels
	outByChan map[linkChan]*outChannel // credit routing: (link, id) → channel
	inSubKeys map[chanKey]uint32       // dedup of sub-side channels
	peers     map[string]*peerLink     // remote node → named link
	links     map[*peerLink]struct{}   // every live link, named or pending
	nextChan  uint32

	// Written with mu held like the tables above, but read without it once
	// per frame (push, handleUpdate).
	closed atomic.Bool
	outs   cowMap[string, []*outChannel] // class → established out channels
	ins    cowMap[uint32, *inChannel]    // channel ID → subscriber binding

	stats Stats

	// local is the attribute storage in-process delivery copies updates
	// into, handed back by the consumers' Reflection.Release.
	local attrStore

	bmu  sync.Mutex // serializes discovery broadcasts
	bbuf []byte     // broadcast's encode buffer, guarded by bmu

	// changed is closed and replaced, under mu, whenever a channel set
	// changes: the edge the condition waits sleep on.
	changed chan struct{}
	// kick wakes the timer loop for an entry made due ahead of its tick;
	// one pending token covers any number of them.
	kick chan struct{}

	done chan struct{}
	wg   sync.WaitGroup
}

// classLP keys a table entry: one LP's registration for one class.
type classLP struct {
	class string
	lp    string
}

// chanKey identifies a virtual channel endpoint pairing for deduplication.
// peer is the remote node: on the publisher side it names the subscriber's
// node, on the subscriber side the publisher's node. Each side creates at
// most one channel per key.
type chanKey struct {
	peer  string
	subLP string
	class string
}

// linkChan addresses a publisher-side channel by the link it rides and the
// subscriber-assigned ID — the coordinates a CREDIT frame carries. Channel
// IDs are assigned per subscriber backbone, so two subscribers can pick
// the same ID; the link disambiguates. Local fast-path channels use a nil
// link (local IDs come from this backbone's own counter, so they are
// unique among themselves).
type linkChan struct {
	link *peerLink
	id   uint32
}

// New attaches a backbone to the LAN under the given node name.
func New(lan transport.LAN, node string, cfg Config) (*Backbone, error) {
	ifc, err := lan.Attach(node)
	if err != nil {
		return nil, fmt.Errorf("cb: attach %q: %w", node, err)
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall
	}
	b := &Backbone{
		node:      node,
		ifc:       ifc,
		addr:      ifc.Addr(),
		clock:     cfg.Clock,
		pubs:      make(map[classLP]*Publication),
		subs:      make(map[classLP]*Subscription),
		outKeys:   make(map[chanKey]*outChannel),
		outByChan: make(map[linkChan]*outChannel),
		inSubKeys: make(map[chanKey]uint32),
		peers:     make(map[string]*peerLink),
		links:     make(map[*peerLink]struct{}),
		changed:   make(chan struct{}),
		kick:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	b.wg.Add(3)
	go b.acceptLoop()
	go b.datagramLoop()
	go b.timerLoop()
	return b, nil
}

// Node returns the backbone's node name.
func (b *Backbone) Node() string { return b.node }

// Clock returns the clock the backbone reads time from.
func (b *Backbone) Clock() clock.Clock { return b.clock }

// Addr returns the backbone's dialable stream address.
func (b *Backbone) Addr() string { return b.addr }

// Stats returns the live instrumentation counters. The pointer stays valid
// for the backbone's lifetime.
func (b *Backbone) Stats() *Stats { return &b.stats }

// Close sends BYE to all peers, tears down every channel and registration,
// and detaches from the LAN.
func (b *Backbone) Close() error {
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return nil
	}
	b.closed.Store(true)
	// Every link must be shut down — including pending accepted links
	// that never identified themselves — or their read pumps would keep
	// wg.Wait below blocked forever.
	links := make([]*peerLink, 0, len(b.links))
	for l := range b.links {
		links = append(links, l)
	}
	subs := make([]*Subscription, 0, len(b.subs))
	for _, s := range b.subs {
		subs = append(subs, s)
	}
	// Release publishers stalled on reliable windows: their channels will
	// never be consumed from again.
	for _, chans := range b.outs.view() {
		for _, oc := range chans {
			oc.release()
		}
	}
	b.mu.Unlock()

	bye := wire.Frame{Kind: wire.KindBye, Node: b.node}
	for _, l := range links {
		_ = l.send(bye) // best effort
		l.shutdown()
	}
	for _, s := range subs {
		s.mbox.close()
	}
	close(b.done)
	err := b.ifc.Close()
	b.wg.Wait()
	return err
}

// TableEntry describes one row of the Publication or Subscription table,
// for introspection: the telemetry plane (internal/obs) reads it for
// /metrics and /debug/tablez, and the tests read it.
type TableEntry struct {
	LP       string
	Class    string
	Channels int
	// Policy is the subscription's delivery policy (subscription rows
	// only; publisher rows leave it empty — each of their channels
	// carries the policy its subscriber declared).
	Policy string
	// Delivered totals reflections buffered into this subscription's
	// mailbox since it subscribed; Dropped and Conflated total its
	// losses over the same lifetime. ByChannel breaks the counts down
	// per *live* virtual channel so the lossy publisher can be named —
	// entries vanish with their channel, but the row totals keep
	// counting across link churn. Subscription rows only.
	Delivered uint64
	Dropped   uint64
	Conflated uint64
	ByChannel []ChannelTally
	// Stalls counts credit-window stall episodes across the class's out
	// channels (publisher rows only): how often a send found a reliable
	// subscriber's window exhausted.
	Stalls uint64
}

// Tables returns snapshots of the Publication and Subscription tables.
func (b *Backbone) Tables() (pubs, subs []TableEntry) {
	b.mu.Lock()
	peerOf := make(map[uint32]string) // channel ID → publishing node
	for id, ic := range b.ins.view() {
		peerOf[id] = ic.key.peer
	}
	type subRow struct {
		entry TableEntry
		s     *Subscription
	}
	var subRows []subRow
	for key, s := range b.subs {
		subRows = append(subRows, subRow{
			entry: TableEntry{
				LP:       key.lp,
				Class:    key.class,
				Channels: len(s.channels),
				Policy:   s.policy.String(),
			},
			s: s,
		})
	}
	for key := range b.pubs {
		chans, _ := b.outs.get(key.class)
		e := TableEntry{
			LP:       key.lp,
			Class:    key.class,
			Channels: len(chans),
		}
		for _, oc := range chans {
			oc.credMu.Lock()
			e.Stalls += oc.stalls
			oc.credMu.Unlock()
		}
		pubs = append(pubs, e)
	}
	b.mu.Unlock()

	// Mailbox tallies are read outside b.mu: the mailbox has its own lock
	// and push runs without b.mu held.
	for _, row := range subRows {
		e := row.entry
		e.ByChannel = row.s.mbox.channelTallies()
		for i := range e.ByChannel {
			e.ByChannel[i].Peer = peerOf[e.ByChannel[i].Channel]
		}
		// Row totals come from the mailbox's lifetime tallies, not a sum
		// of ByChannel: the per-channel entries die with their channel,
		// and a fast sweep would otherwise reset the row to zero between
		// two scrapes.
		totals := row.s.mbox.rowTallies()
		e.Delivered = totals.Delivered
		e.Dropped = totals.Dropped
		e.Conflated = totals.Conflated
		subs = append(subs, e)
	}
	return pubs, subs
}

// acceptLoop admits inbound peer links.
func (b *Backbone) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ifc.Accept()
		if err != nil {
			return // interface closed
		}
		b.startLink(conn, "") // peer name learned from its first frame
	}
}

// datagramLoop handles broadcast discovery traffic. Like a link's read
// loop it owns one wire.Decoder and one Frame, reused for every datagram,
// so the names a segment repeats are interned once and a refresh
// broadcast decodes without allocating. The handlers copy what they keep.
func (b *Backbone) datagramLoop() {
	defer b.wg.Done()
	dec := wire.NewDecoder()
	var f wire.Frame
	for dg := range b.ifc.Recv() {
		if dec.DecodeInto(dg.Payload, &f) != nil {
			continue // malformed datagram; drop
		}
		switch f.Kind {
		case wire.KindSubscription:
			b.handleSubscriptionBroadcast(f)
		case wire.KindPublication:
			b.handlePublicationBroadcast(f)
		}
	}
}

// timerLoop drives the repair re-broadcasts, heartbeats and link-death
// detection off one timer, and re-broadcasts at once when kicked.
func (b *Backbone) timerLoop() {
	defer b.wg.Done()
	// The start is read before the timer is armed: a manual clock's test
	// that waits for the armed timer and then advances finds the first
	// sweep due from the clock it started on, not from its own step.
	lastHB := b.clock.Now()
	tick := b.clock.NewTimer(tickInterval)
	defer tick.Stop()
	var sc timerScratch
	for {
		select {
		case <-b.done:
			return
		case <-b.kick:
			b.broadcastPending(&sc, b.clock.Now())
		case <-tick.C():
			tick.Reset(tickInterval)
			now := b.clock.Now()
			b.broadcastPending(&sc, now)
			if now.Sub(lastHB) >= heartbeatInterval {
				lastHB = now
				b.heartbeat(&sc, now)
			}
		}
	}
}

// timerScratch is the timer loop's working storage, kept across its ticks
// so that the repair traffic of a steady federation allocates nothing.
type timerScratch struct {
	due     []classLP    // entries due for a SUBSCRIPTION broadcast
	links   []*peerLink  // every live link, to beacon or reap
	credits []linkCredit // the reliable in-channels' consumption counts
	pairs   []int64      // one link's [channel, consumed] pairs
	hb      wire.AttrSet // a beacon's AttrCreditCounts
}

// linkCredit is one reliable in-channel's cumulative consumption, to be
// repeated on the beacon of the link it rides.
type linkCredit struct {
	link     *peerLink
	id, used uint32
}

// broadcastPending sends SUBSCRIPTION datagrams for entries that are due:
// unmatched entries at broadcastInterval, matched ones at refreshInterval,
// one that just lost a channel now.
func (b *Backbone) broadcastPending(sc *timerScratch, now time.Time) {
	b.mu.Lock()
	due := sc.due[:0]
	for key, s := range b.subs {
		every := broadcastInterval
		if len(s.channels) > 0 {
			every = refreshInterval
		}
		if now.Sub(s.lastBroadcast) < every {
			continue
		}
		s.lastBroadcast = now
		clear(s.solicited) // everyone has been told again: the next solicit is new
		due = append(due, key)
	}
	b.mu.Unlock()
	b.broadcastSubscriptions(due)
	clear(due) // let go of withdrawn entries' names
	sc.due = due[:0]
}

// broadcastSubscriptions sends one SUBSCRIPTION datagram per entry. Called
// without b.mu.
func (b *Backbone) broadcastSubscriptions(keys []classLP) {
	for _, key := range keys {
		b.broadcast(b.subscriptionFrame(key), &b.stats.BroadcastsSent)
	}
}

// subscriptionFrame is the SUBSCRIPTION message of one table entry.
func (b *Backbone) subscriptionFrame(key classLP) wire.Frame {
	return wire.Frame{
		Kind:  wire.KindSubscription,
		Node:  b.node,
		LP:    key.lp,
		Class: key.class,
		Addr:  b.addr,
	}
}

// broadcast sends one discovery datagram, best effort, encoded into the
// backbone's broadcast buffer (the transport copies what it keeps). It is
// counted in sent before it leaves, so that nothing it causes can be seen
// ahead of its count, and taken back out if it did not leave.
func (b *Backbone) broadcast(f wire.Frame, sent *metrics.Counter) {
	b.bmu.Lock()
	defer b.bmu.Unlock()
	payload, err := f.AppendEncode(b.bbuf[:0])
	b.bbuf = payload[:0]
	if err != nil {
		return
	}
	sent.Inc()
	if b.ifc.Broadcast(payload) != nil {
		sent.Add(-1)
	}
}

// edgeLocked wakes every condition wait to look again. The caller holds
// b.mu.
func (b *Backbone) edgeLocked() {
	close(b.changed)
	b.changed = make(chan struct{})
}

// channelsChangedLocked is the edge of a publisher-side change: class's
// channel set grew or shrank, so the waits look again and each local
// publication of the class is left a token. The caller holds b.mu.
func (b *Backbone) channelsChangedLocked(class string) {
	b.edgeLocked()
	for key, p := range b.pubs {
		if key.class == class {
			select {
			case p.notify <- struct{}{}:
			default:
			}
		}
	}
}

// waitChange blocks until cond holds (nil) or ctx is done (ctx.Err()),
// re-evaluating cond at every channel-set change. cond takes what locks it
// needs itself.
func (b *Backbone) waitChange(ctx context.Context, cond func() bool) error {
	for {
		b.mu.Lock()
		changed := b.changed
		b.mu.Unlock()
		// Evaluated after the edge was read: a change that cond misses has
		// closed the channel this pass waits on.
		if cond() {
			return nil
		}
		select {
		case <-changed:
		case <-ctx.Done():
			if cond() {
				return nil
			}
			return ctx.Err()
		}
	}
}

// heartbeat beacons every link and reaps dead ones — including pending
// links whose peer never spoke. Each beacon piggybacks the cumulative
// consumption counts of the link's reliable in-channels, so a lost CREDIT
// frame stalls a publisher for at most one heartbeat period.
func (b *Backbone) heartbeat(sc *timerScratch, now time.Time) {
	b.mu.Lock()
	links, credits := sc.links[:0], sc.credits[:0]
	for l := range b.links {
		links = append(links, l)
	}
	for id, ic := range b.ins.view() {
		if ic.link == nil || ic.sub == nil || ic.sub.policy != wire.PolicyReliable {
			continue
		}
		credits = append(credits, linkCredit{link: ic.link, id: id, used: ic.sub.mbox.consumedCount(id)})
	}
	b.mu.Unlock()

	for _, l := range links {
		if !l.heard(now) {
			b.linkDown(l)
			continue
		}
		hb := wire.Frame{Kind: wire.KindHeartbeat, Node: b.node}
		pairs := sc.pairs[:0]
		for _, c := range credits {
			if c.link == l {
				pairs = append(pairs, int64(c.id), int64(c.used))
			}
		}
		if len(pairs) > 0 {
			sc.hb.Reset()
			sc.hb.PutInt64s(wire.AttrCreditCounts, pairs)
			hb.Attrs = sc.hb
		}
		sc.pairs = pairs
		_ = l.send(hb)
	}
	clear(links) // let go of dead links
	clear(credits)
	sc.links, sc.credits = links[:0], credits[:0]
}

// sendGrant pushes one cumulative credit grant for a reliable
// subscription's channel id back to its publisher — directly for local
// fast-path channels, as a credit-bearing HEARTBEAT frame for remote
// ones (legacy-safe: old builds accept the frame and ignore the
// attribute). Called once per grant batch (Subscription.grantEvery); the
// periodic heartbeat piggyback covers the remainder.
func (b *Backbone) sendGrant(s *Subscription, id, cum uint32) {
	b.mu.Lock()
	ic := s.channels[id]
	if ic == nil {
		b.mu.Unlock()
		return // channel torn down meanwhile; its publisher was already released
	}
	link := ic.link
	var local *outChannel
	if link == nil {
		local = b.outByChan[linkChan{id: id}]
	}
	b.mu.Unlock()

	if link == nil {
		if local != nil {
			local.setConsumed(cum)
			b.stats.CreditsGranted.Inc()
		}
		return
	}
	grant := wire.Frame{Kind: wire.KindHeartbeat, Node: b.node, Attrs: wire.AttrSet{}}
	grant.Attrs.PutInt64s(wire.AttrCreditCounts, []int64{int64(id), int64(cum)})
	if err := link.send(grant); err != nil {
		b.linkDown(link)
		return
	}
	b.stats.CreditsGranted.Inc()
}
