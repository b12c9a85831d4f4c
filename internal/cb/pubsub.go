package cb

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"codsim/internal/wire"
)

// Reflection is one delivered update: the subscriber-side view of an
// UPDATE ATTRIBUTE VALUE frame (HLA's Reflect Attribute Values callback).
type Reflection struct {
	Class   string
	PubNode string
	PubLP   string
	Channel uint32
	Seq     uint32
	Time    float64
	Attrs   wire.AttrSet

	// store is where Attrs' storage came from and goes back to on Release:
	// the link the frame was read on, or the backbone's in-process store.
	store *attrStore
}

// Release hands the reflection's attribute storage back to where it came
// from, to be filled with a later update of the same source: a link reads
// a later frame into it, and the in-process path copies a later update
// into it. Attrs is empty afterwards. Only the consumer that took the
// reflection out of its subscription may call it, at most once, and only
// when nothing still reads Attrs or a slice obtained from it (Bytes
// aliases the storage). Releasing is optional: a reflection that is never
// released is ordinary garbage, and costs its source the two allocations
// of a fresh set — a frame body and its ref table — per update. The rule
// is the same for every reflection, whether it crossed a link or not, and
// what is handed back is never the publisher's: Update never retains the
// set it is given, so a reflection's Attrs are always a copy.
func (r *Reflection) Release() {
	if r.store == nil {
		return
	}
	r.store.put(r.Attrs)
	r.Attrs, r.store = wire.AttrSet{}, nil
}

// attrStore is the attribute storage consumers handed back with
// Reflection.Release, kept for the later updates of one source: each link
// has one, which its read loop reads frames into, and the backbone has
// one, which in-process delivery copies updates into. It grows to its
// source's peak of storage in flight and is not trimmed.
type attrStore struct {
	mu   sync.Mutex
	free []wire.AttrSet
	n    atomic.Int32 // len(free), for take's lock-free look when it is empty
}

func (s *attrStore) put(a wire.AttrSet) {
	s.mu.Lock()
	s.free = append(s.free, a)
	s.n.Store(int32(len(s.free)))
	s.mu.Unlock()
}

// take returns a set handed back earlier, or the zero set when none is.
// The store of a source whose consumers never release stays empty, and
// take then costs one atomic load instead of a lock round trip; a put it
// races with is seen by the next take.
func (s *attrStore) take() (a wire.AttrSet) {
	if s.n.Load() == 0 {
		return a
	}
	s.mu.Lock()
	if n := len(s.free); n > 0 {
		a = s.free[n-1]
		s.free[n-1] = wire.AttrSet{}
		s.free = s.free[:n-1]
		s.n.Store(int32(n - 1))
	}
	s.mu.Unlock()
	return a
}

// outChannel is the publisher half of a virtual channel: the link (nil for
// the in-process fast path) plus the subscriber-assigned channel ID.
type outChannel struct {
	class      string
	key        chanKey
	link       *peerLink     // nil → local delivery
	local      *Subscription // set when link == nil
	remoteChan uint32
	policy     wire.Policy
	window     uint32 // reliable send window (PolicyReliable only)

	// sendMu serializes sequence assignment *and* the matching deliver/send
	// on this channel, so the per-channel delivery order always equals the
	// sequence order even when several goroutines Update concurrently.
	sendMu sync.Mutex
	seq    uint32 // guarded by sendMu

	// Credit accounting of a reliable channel. consumed is the cumulative
	// count of updates the subscriber has drained from its mailbox,
	// reported by CREDIT frames and heartbeat piggybacks; the publisher
	// stalls while seq-consumed reaches the window. gone flips when the
	// channel is torn down, releasing any stalled publisher.
	credMu   sync.Mutex
	consumed uint32
	gone     bool
	stalls   uint64        // credit-stall episodes, surfaced in Tables
	creditCh chan struct{} // capacity 1; poked on credit arrival / teardown
}

// remote reports whether the channel rides a link rather than the
// in-process fast path.
func (oc *outChannel) remote() bool { return oc.link != nil }

// newOutChannel builds the publisher half with its policy contract.
func newOutChannel(class string, key chanKey, link *peerLink, local *Subscription, remoteChan uint32, policy wire.Policy, window uint32) *outChannel {
	oc := &outChannel{
		class: class, key: key, link: link, local: local,
		remoteChan: remoteChan, policy: policy, window: window,
	}
	if policy == wire.PolicyReliable {
		if oc.window == 0 {
			oc.window = DefaultCreditWindow
		}
		oc.creditCh = make(chan struct{}, 1)
	}
	return oc
}

// setConsumed folds a cumulative consumption report into the window state.
// Counts may arrive out of order (immediate CREDIT frames race heartbeat
// piggybacks), so only forward movement is kept.
func (oc *outChannel) setConsumed(cum uint32) {
	if oc.policy != wire.PolicyReliable {
		return
	}
	oc.credMu.Lock()
	if int32(cum-oc.consumed) > 0 {
		oc.consumed = cum
	}
	oc.credMu.Unlock()
	select {
	case oc.creditCh <- struct{}{}:
	default:
	}
}

// release marks the channel dead and wakes any publisher stalled on its
// window — a subscriber dying mid-stall must not wedge the producer.
func (oc *outChannel) release() {
	if oc.policy != wire.PolicyReliable {
		return
	}
	oc.credMu.Lock()
	oc.gone = true
	oc.credMu.Unlock()
	select {
	case oc.creditCh <- struct{}{}:
	default:
	}
}

// windowOpen reports whether the reliable channel can take another update.
// Caller holds sendMu (guarding seq).
func (oc *outChannel) windowOpen() bool {
	oc.credMu.Lock()
	defer oc.credMu.Unlock()
	return oc.gone || oc.seq-oc.consumed < oc.window
}

// acquireSend takes the channel's send slot once the credit window has
// room. The slot is NOT held while parked: a push stalled on credits
// holds its own Publication, but another LP's publication of the same
// class shares the channel and must still get its non-blocking probe
// through. So the window is re-checked each time the slot is re-taken.
// A nil ctx is the non-blocking form: it reports false on a full window.
// stalled tells the retry form that this stall episode was already
// counted by a preceding non-blocking probe. On (true, nil) the caller
// holds sendMu.
func (oc *outChannel) acquireSend(ctx context.Context, stats *Stats, stalled bool) (bool, error) {
	for {
		oc.sendMu.Lock()
		if oc.windowOpen() {
			// Chain the wakeup: a grant pokes at most one parked sender
			// (creditCh holds one token), so pass the token on while the
			// window has room — without this, coalesced grants strand
			// other waiters even though slots are free.
			select {
			case oc.creditCh <- struct{}{}:
			default:
			}
			return true, nil
		}
		oc.sendMu.Unlock()
		if !stalled {
			stalled = true
			oc.credMu.Lock()
			oc.stalls++
			oc.credMu.Unlock()
			stats.CreditStalls.Inc()
		}
		if ctx == nil {
			return false, nil
		}
		select {
		case <-oc.creditCh:
		case <-ctx.Done():
			return false, ctx.Err()
		}
	}
}

// inChannel is the subscriber half: the binding from a channel ID to the
// local subscription entry. established flips when the publisher confirms
// with the second ACKNOWLEDGE (AckChannelUp) — only then is the channel
// counted as matched, because until the publisher records its half, pushed
// updates would route into the void.
//
// Credit bookkeeping of a reliable subscription lives in the mailbox
// (per-channel cumulative consumption under the mailbox's own lock), so
// the consume hot path touches the global backbone mutex only when a
// grant is actually due.
type inChannel struct {
	id          uint32
	key         chanKey
	link        *peerLink // nil for the in-process fast path
	sub         *Subscription
	established bool
}

// Publication is an LP's publisher registration for one object class
// (HLA Publish Object Class). Obtain it from PublishObjectClass.
type Publication struct {
	b      *Backbone
	key    classLP
	notify chan struct{} // capacity 1; a token per change of the class's channel set
	closed atomic.Bool

	mu sync.Mutex  // one push at a time, credit stalls included
	sc pushScratch // guarded by mu
}

// Subscription is an LP's subscriber registration for one object class
// (HLA Subscribe Object Class). Obtain it from SubscribeObjectClass.
type Subscription struct {
	b   *Backbone
	key classLP

	policy wire.Policy
	window uint32 // reliable send window granted to each publisher
	mbox   *mailbox

	// Guarded by b.mu:
	channels      map[uint32]*inChannel
	lastBroadcast time.Time
	registeredAt  time.Time
	everMatched   bool
	// solicited holds the peers whose PUBLICATION this entry has answered
	// since its last periodic broadcast; a peer leaves it when a channel
	// from it is torn down. One answer per (subscription, peer) keeps a
	// node with many publishers of a class, or a repeated solicit, from
	// drawing a broadcast each.
	solicited map[string]struct{}

	closed atomic.Bool
}

// SubscribeOption configures a subscription.
type SubscribeOption func(*subCfg)

type subCfg struct {
	depth  int
	policy wire.Policy
	window int
}

// defaultMailboxDepth is a subscription's buffer depth when WithQueue does
// not set one.
const defaultMailboxDepth = 64

// reliableStartDepth is the ring a reliable subscription's mailbox starts
// with, whatever WithQueue says; it grows by doubling as frames arrive.
const reliableStartDepth = 8

// DefaultCreditWindow is the reliable send window used when WithReliable
// is given a non-positive window (and when a policy-bearing handshake
// omits the window attribute).
const DefaultCreditWindow = 64

// WithQueue sets the mailbox depth. Under the default drop-oldest policy
// the oldest reflection is dropped on overflow; combine with a delivery
// policy option to change what overflow means. A reliable subscription
// never overflows (its mailbox grows), so it ignores the depth.
func WithQueue(depth int) SubscribeOption {
	return func(c *subCfg) { c.depth = depth }
}

// WithLatestValue selects the conflating delivery policy: a full mailbox
// coalesces to the newest reflection per channel instead of dropping the
// oldest blindly. The right contract for periodic state (crane state,
// motion cues) — memory stays bounded while a stalled consumer resumes on
// the freshest sample from every publisher.
func WithLatestValue() SubscribeOption {
	return func(c *subCfg) { c.policy = wire.PolicyLatestValue }
}

// WithReliable selects the credit-windowed delivery policy: nothing is
// ever dropped. Each publisher of the class may have at most window
// unconsumed updates in flight to this subscription; beyond that its
// Update returns ErrWindowFull (or UpdateContext blocks) until this
// subscriber consumes — saturation propagates to the producer instead of
// the kernel buffer. window <= 0 means DefaultCreditWindow.
func WithReliable(window int) SubscribeOption {
	return func(c *subCfg) {
		c.policy = wire.PolicyReliable
		c.window = window
	}
}

// WithDropOldest selects the legacy policy explicitly: a full mailbox
// drops its oldest reflection. This is the default at this layer and the
// behavior every policy-less legacy peer gets.
func WithDropOldest() SubscribeOption {
	return func(c *subCfg) { c.policy = wire.PolicyDropOldest }
}

// PublishObjectClass registers lp as a publisher of class. Matching local
// subscribers are linked immediately; remote ones are solicited with one
// PUBLICATION datagram and linked as their SUBSCRIPTION broadcasts arrive.
func (b *Backbone) PublishObjectClass(lp, class string) (*Publication, error) {
	if class == "" {
		return nil, ErrUnknownClass
	}
	if lp == "" {
		return nil, ErrUnknownLP
	}
	key := classLP{class: class, lp: lp}

	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := b.pubs[key]; dup {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrDuplicateLP, lp, class)
	}
	p := &Publication{b: b, key: key, notify: make(chan struct{}, 1)}
	b.pubs[key] = p
	// In-process fast path: link to every local subscriber of the class.
	for skey, sub := range b.subs {
		if skey.class == class {
			b.establishLocalLocked(sub)
		}
	}
	b.mu.Unlock()
	b.broadcast(wire.Frame{Kind: wire.KindPublication, Node: b.node, LP: lp, Class: class}, &b.stats.SolicitsSent)
	return p, nil
}

// SubscribeObjectClass registers lp as a subscriber of class and broadcasts
// its first SUBSCRIPTION before returning; the timer loop repeats it until
// matched, then keeps refreshing slowly.
func (b *Backbone) SubscribeObjectClass(lp, class string, opts ...SubscribeOption) (*Subscription, error) {
	if class == "" {
		return nil, ErrUnknownClass
	}
	if lp == "" {
		return nil, ErrUnknownLP
	}
	cfg := subCfg{depth: 0}
	for _, o := range opts {
		o(&cfg)
	}
	depth := cfg.depth
	window := uint32(DefaultCreditWindow)
	if cfg.policy == wire.PolicyReliable && cfg.window > 0 {
		window = uint32(cfg.window)
	}
	key := classLP{class: class, lp: lp}

	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return nil, ErrClosed
	}
	if _, dup := b.subs[key]; dup {
		b.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrDuplicateLP, lp, class)
	}
	if depth <= 0 {
		depth = defaultMailboxDepth
	}
	if cfg.policy == wire.PolicyReliable {
		// A reliable mailbox never drops, so its depth is only where the
		// ring starts: push doubles it up to what the credit windows let
		// the publishers put in flight. Most reliable classes carry a
		// handful of frames at a time; a ring sized to the full window up
		// front held that window's memory on every subscription, used or
		// not.
		depth = reliableStartDepth
	}
	grantEvery := window / 4
	if grantEvery == 0 {
		grantEvery = 1
	}
	s := &Subscription{
		b:            b,
		key:          key,
		policy:       cfg.policy,
		window:       window,
		mbox:         newMailbox(depth, cfg.policy, grantEvery, &b.stats),
		channels:     make(map[uint32]*inChannel),
		registeredAt: b.clock.Now(),
	}
	s.lastBroadcast = s.registeredAt
	b.subs[key] = s
	// In-process fast path: link to local publishers right away.
	hasLocalPub := false
	for pkey := range b.pubs {
		if pkey.class == class {
			hasLocalPub = true
			break
		}
	}
	if hasLocalPub {
		b.establishLocalLocked(s)
	}
	b.mu.Unlock()
	b.broadcastSubscriptions([]classLP{key})
	return s, nil
}

// establishLocalLocked creates the in-process virtual channel for s if one
// does not already exist. Caller holds b.mu.
func (b *Backbone) establishLocalLocked(s *Subscription) {
	key := chanKey{peer: b.node, subLP: s.key.lp, class: s.key.class}
	if _, exists := b.outKeys[key]; exists {
		return
	}
	b.nextChan++
	id := b.nextChan
	oc := newOutChannel(s.key.class, key, nil, s, id, s.policy, s.window)
	b.addOutLocked(oc)
	ic := newInChannel(id, key, nil, s)
	ic.established = true
	b.ins.set(id, ic)
	b.inSubKeys[key] = id
	s.channels[id] = ic
	b.noteMatchedLocked(s)
	b.stats.ChannelsUp.Inc()
}

// newInChannel builds the subscriber half.
func newInChannel(id uint32, key chanKey, link *peerLink, s *Subscription) *inChannel {
	return &inChannel{id: id, key: key, link: link, sub: s}
}

// noteMatchedLocked records the registration→first-channel latency once.
func (b *Backbone) noteMatchedLocked(s *Subscription) {
	if s.everMatched {
		return
	}
	s.everMatched = true
	b.stats.EstablishLatency.Observe(b.clock.Now().Sub(s.registeredAt).Seconds())
}

// Update pushes one attribute update into every virtual channel of the
// class (UPDATE ATTRIBUTE VALUE). simTime is the publisher's simulation
// time. Update never retains attrs: a remote channel gets it encoded into
// the publication's scratch, a local one a copy in storage of the
// backbone's, all before the call returns, so the caller may rewrite the
// set for its next update — every publisher in the simulator reuses one.
//
// A Publication pushes one update at a time: concurrent calls on it take
// turns. Updates on one virtual channel are delivered to the subscriber in
// sequence (Seq) order, whichever goroutines publish. Ordering across
// different channels — different subscriber LPs, or different publishers
// of the same class — is unspecified.
//
// A reliable channel whose credit window is exhausted is skipped and the
// call reports ErrWindowFull (after delivering to every other channel);
// use UpdateContext to block for credits instead. An update that does not
// fit a frame (wire.MaxFrameSize) while the class has a remote channel
// fails with an error wrapping wire.ErrTooLarge and reaches no subscriber,
// local ones included.
func (p *Publication) Update(simTime float64, attrs wire.AttrSet) error {
	_, err := p.push(nil, simTime, attrs)
	return err
}

// UpdateContext is Update that blocks while any reliable channel's credit
// window is exhausted, resuming as the subscriber consumes. It returns
// ctx.Err() when canceled mid-stall (the update may by then have reached
// the channels ahead of the stalled one; reliable consumers are expected
// to deduplicate, as the dist protocol does). While it is stalled, every
// other call on the same Publication waits behind it; another LP's
// publication of the class is not held up.
func (p *Publication) UpdateContext(ctx context.Context, simTime float64, attrs wire.AttrSet) error {
	_, err := p.push(ctx, simTime, attrs)
	return err
}

// UpdateRouted is Update reporting the number of virtual channels the
// update was delivered into, read atomically with the push (the cod SDK's
// ErrNoSubscribers detection rides on this — a separate Channels() sample
// would race with channel establishment).
func (p *Publication) UpdateRouted(simTime float64, attrs wire.AttrSet) (int, error) {
	return p.push(nil, simTime, attrs)
}

// UpdateRoutedContext is UpdateContext reporting the routed channel count.
func (p *Publication) UpdateRoutedContext(ctx context.Context, simTime float64, attrs wire.AttrSet) (int, error) {
	return p.push(ctx, simTime, attrs)
}

// push routes one update into every virtual channel of the class.
//
// Ordering guarantee: on any single virtual channel (one publisher node →
// one subscriber LP), updates are delivered in sequence order — each
// channel's sendMu is held across both the Seq assignment and the matching
// deliver/send, so two concurrent Update calls cannot deliver Seq n+1
// before Seq n. No ordering is promised *across* channels or across
// different publishers of the same class.
//
// Delivery policy: reliable channels are sent only while their credit
// window has room. With a nil ctx a full window skips the channel and the
// call reports ErrWindowFull; with a ctx the send stalls until the
// subscriber consumes, the channel dies, or ctx is done. The stall holds
// p but parks outside the channel's send slot, so the other publications
// of the class are never blocked behind it; the window is re-verified
// under the slot before every send, keeping delivery order equal to seq
// order.
func (p *Publication) push(ctx context.Context, simTime float64, attrs wire.AttrSet) (int, error) {
	if p.closed.Load() {
		return 0, ErrHandleClosed
	}
	b := p.b
	if b.closed.Load() {
		return 0, ErrClosed
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	sc := &p.sc
	// The class's channel list is read without b.mu and is never modified
	// once published, so it needs no copy either.
	chans, _ := b.outs.get(p.key.class)

	// Encode once, before any channel is touched: every remote channel
	// gets a copy with its own Channel and Seq stamped in, and an update
	// too large for a frame fails here, delivered to nobody.
	if slices.ContainsFunc(chans, (*outChannel).remote) {
		f := wire.Frame{
			Kind:  wire.KindUpdateAttrs,
			Time:  simTime,
			Node:  b.node,
			LP:    p.key.lp,
			Class: p.key.class,
			Attrs: attrs,
		}
		if err := sc.encode(f); err != nil {
			return 0, fmt.Errorf("cb: update %s/%s: %w", p.key.lp, p.key.class, err)
		}
	}
	routed := 0
	windowFull := false
	for _, oc := range chans {
		if oc.policy == wire.PolicyReliable {
			// Non-blocking probe first: while the batch holds other
			// channels' send slots we must not park. Only when the window
			// is full and the caller wants to block do we flush (releasing
			// every held slot) and retry with the parking form.
			open, _ := oc.acquireSend(nil, &b.stats, false)
			if !open {
				if ctx == nil {
					windowFull = true
					continue
				}
				routed += sc.flush(b)
				var err error
				open, err = oc.acquireSend(ctx, &b.stats, true)
				if err != nil {
					routed += sc.flush(b)
					return routed, err
				}
				if !open {
					windowFull = true
					continue
				}
			}
		} else {
			oc.sendMu.Lock()
		}
		oc.seq++
		if oc.link == nil {
			r := Reflection{
				Class:   p.key.class,
				PubNode: b.node,
				PubLP:   p.key.lp,
				Channel: oc.remoteChan,
				Seq:     oc.seq,
				Time:    simTime,
				Attrs:   b.local.take(),
				store:   &b.local,
			}
			attrs.CloneInto(&r.Attrs)
			b.deliver(oc.local, &r)
			oc.sendMu.Unlock()
			routed++
			b.stats.UpdatesSent.Inc()
			continue
		}
		if sc.link != nil && sc.link != oc.link {
			routed += sc.flush(b)
		}
		sc.stage(oc, oc.seq)
	}
	routed += sc.flush(b)
	if windowFull {
		return routed, ErrWindowFull
	}
	return routed, nil
}

// Channels returns the number of virtual channels currently carrying this
// publication's class (shared by all local publishers of the class).
func (p *Publication) Channels() int {
	chans, _ := p.b.outs.get(p.key.class)
	return len(chans)
}

// WaitChannelsContext blocks until the class has at least n channels or ctx
// is done, in which case it returns ctx.Err(). Handy for startup sequencing.
func (p *Publication) WaitChannelsContext(ctx context.Context, n int) error {
	return p.b.waitChange(ctx, func() bool { return p.Channels() >= n })
}

// NotifyC returns a channel that receives a token whenever the class's
// channel set changes — a subscriber matched, left or died — for
// select-based publishers that act on a join (Channels tells which way it
// went). It mirrors Subscription.NotifyC: capacity one, so a burst of
// changes leaves one token.
func (p *Publication) NotifyC() <-chan struct{} { return p.notify }

// Close withdraws the publisher registration. Channels from other
// publishers of the same class are unaffected.
func (p *Publication) Close() error {
	if !p.closed.CompareAndSwap(false, true) {
		return nil
	}

	b := p.b
	b.mu.Lock()
	delete(b.pubs, p.key)
	// Tear down the class's out-channels only when no other local LP
	// still publishes the class.
	stillPublished := false
	for key := range b.pubs {
		if key.class == p.key.class {
			stillPublished = true
			break
		}
	}
	type byeTarget struct {
		link *peerLink
		id   uint32
	}
	var byes []byeTarget
	if !stillPublished {
		chans, _ := b.outs.get(p.key.class)
		b.removeOutsLocked(func(oc *outChannel) bool { return oc.class == p.key.class })
		for _, oc := range chans {
			if oc.local != nil {
				// The local subscriber resumes discovery for other
				// (remote) publishers right away.
				if ic, ok := b.ins.get(oc.remoteChan); ok {
					b.removeInLocked(ic)
				}
				continue
			}
			byes = append(byes, byeTarget{link: oc.link, id: oc.remoteChan})
		}
	}
	node := b.node
	b.mu.Unlock()

	// Tell remote subscribers their channel is gone so they re-arm fast
	// discovery instead of waiting on a silent stale channel.
	for _, t := range byes {
		_ = t.link.send(wire.Frame{Kind: wire.KindBye, Channel: t.id, Node: node})
	}
	return nil
}

// deliver hands a reflection to the subscription's mailbox, which copies
// it into its ring; a reflection nobody will see gives its storage back.
func (b *Backbone) deliver(s *Subscription, r *Reflection) {
	if s == nil || s.closed.Load() {
		r.Release()
		return
	}
	s.mbox.push(r)
	b.stats.ReflectsDelivered.Inc()
}

// Poll returns the oldest buffered reflection without blocking; ok reports
// whether one was available. This is the paper's "pull" side. On a
// reliable subscription taking a reflection is what grants credit back to
// its publisher: the mailbox counts the consumption in the same critical
// section, and the global backbone mutex is touched only when a grant
// actually goes out.
func (s *Subscription) Poll() (r Reflection, ok bool) {
	cum, grant, ok := s.mbox.poll(&r)
	if grant {
		s.b.sendGrant(s, r.Channel, cum)
	}
	return r, ok
}

// Latest drains the mailbox and returns the newest reflection; ok is false
// when the mailbox was empty. Convenient for conflated state classes. The
// reflections it skips over are released.
func (s *Subscription) Latest() (Reflection, bool) {
	var (
		last Reflection
		got  bool
	)
	for {
		r, ok := s.Poll()
		if !ok {
			return last, got
		}
		last.Release() // superseded, and nobody else has seen it
		last, got = r, true
	}
}

// NextContext blocks until a reflection arrives, ctx is done (ctx.Err()),
// or the subscription closes (ErrHandleClosed). A reflection that races
// with the cancellation is still delivered.
func (s *Subscription) NextContext(ctx context.Context) (r Reflection, err error) {
	cum, grant, err := s.mbox.nextCtx(ctx, &r)
	if grant {
		s.b.sendGrant(s, r.Channel, cum)
	}
	return r, err
}

// Policy returns the subscription's delivery policy.
func (s *Subscription) Policy() wire.Policy { return s.policy }

// NotifyC returns a channel that receives a token whenever the mailbox goes
// from empty to non-empty, for select-based consumers.
func (s *Subscription) NotifyC() <-chan struct{} { return s.mbox.notify }

// Pending returns the number of buffered reflections.
func (s *Subscription) Pending() int { return s.mbox.pending() }

// Matched reports whether the subscription currently has at least one
// fully established virtual channel (both ACKNOWLEDGE phases complete, so
// the publisher is routing into it).
func (s *Subscription) Matched() bool {
	b := s.b
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, ic := range s.channels {
		if ic.established {
			return true
		}
	}
	return false
}

// Close withdraws the subscriber registration and releases its channels.
func (s *Subscription) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}

	b := s.b
	b.mu.Lock()
	delete(b.subs, s.key)
	type byeTarget struct {
		link *peerLink
		id   uint32
	}
	var byes []byeTarget
	for id, ic := range s.channels {
		b.ins.del(id)
		delete(b.inSubKeys, ic.key)
		if ic.link != nil {
			// Tell the publisher this channel is dead, or its stale
			// out-channel entry would silently ignore a re-registration
			// of the same LP forever.
			byes = append(byes, byeTarget{link: ic.link, id: id})
		}
	}
	// Local fast-path channels also have a publisher half to clean (and
	// possibly a publisher stalled on its window to release).
	b.removeOutsLocked(func(oc *outChannel) bool { return oc.local == s })
	s.channels = make(map[uint32]*inChannel)
	node := b.node
	b.mu.Unlock()

	for _, t := range byes {
		_ = t.link.send(wire.Frame{Kind: wire.KindBye, Channel: t.id, Node: node})
	}
	s.mbox.close()
	return nil
}
