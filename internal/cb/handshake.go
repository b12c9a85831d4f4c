package cb

import (
	"context"

	"codsim/internal/wire"
)

// handleSubscriptionBroadcast implements the publisher side of the
// initialization protocol (§2.3): on hearing SUBSCRIPTION, the CB checks
// its Publication table; if one of its LPs produces the class, it contacts
// the subscriber's CB and answers ACKNOWLEDGE to start the virtual-channel
// connection.
func (b *Backbone) handleSubscriptionBroadcast(f wire.Frame) {
	if f.Node == b.node {
		return // our own broadcast echoed back
	}
	key := chanKey{peer: f.Node, subLP: f.LP, class: f.Class}

	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return
	}
	publishes := false
	for pkey := range b.pubs {
		if pkey.class == f.Class {
			publishes = true
			break
		}
	}
	_, already := b.outKeys[key]
	b.mu.Unlock()

	if !publishes || already {
		return // not the producer, or channel already up: stay silent
	}

	link, err := b.dialPeer(f.Node, f.Addr)
	if err != nil {
		return // subscriber unreachable; its re-broadcast will retry
	}
	ack := wire.Frame{
		Kind:  wire.KindAcknowledge,
		Phase: wire.AckSubscription,
		Node:  b.node,
		LP:    f.LP, // echo the subscriber LP so its CB can match
		Class: f.Class,
		Addr:  b.ifc.Addr(),
	}
	if err := link.send(ack); err != nil {
		b.linkDown(link)
	}
}

// handlePublicationBroadcast is the subscriber side of a solicit: a CB just
// registered a publisher of f.Class. Every local subscription of the class
// that has no channel from that node — built or building — and has not
// already answered it says SUBSCRIPTION again now, without waiting for its
// interval: to the solicitor alone when the two CBs already share a link,
// to the whole segment, as its interval would, when they do not and the
// entry is unmatched. A matched subscription with no such link is being
// served and would have to broadcast to hurry; its refresh period finds
// the new publisher, so that a popular class does not have every
// subscriber on the segment broadcasting at each publisher that joins.
func (b *Backbone) handlePublicationBroadcast(f wire.Frame) {
	if f.Node == b.node {
		return
	}
	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return
	}
	link := b.peers[f.Node]
	var shout, tell []classLP
	for key, s := range b.subs {
		if key.class != f.Class {
			continue
		}
		if _, has := b.inSubKeys[chanKey{peer: f.Node, subLP: key.lp, class: key.class}]; has {
			continue
		}
		if _, told := s.solicited[f.Node]; told {
			continue
		}
		switch {
		case link != nil:
			tell = append(tell, key)
		case len(s.channels) == 0:
			shout = append(shout, key)
		default:
			continue
		}
		if s.solicited == nil {
			s.solicited = make(map[string]struct{})
		}
		s.solicited[f.Node] = struct{}{}
	}
	b.mu.Unlock()

	b.broadcastSubscriptions(shout)
	for _, key := range tell {
		if err := link.send(b.subscriptionFrame(key)); err != nil {
			b.linkDown(link)
			return
		}
	}
}

// handleFrame dispatches one inbound stream frame. f is the read loop's
// reused frame: handlers copy what they keep, or, handleUpdate, take it.
func (b *Backbone) handleFrame(l *peerLink, f *wire.Frame) {
	switch f.Kind {
	case wire.KindAcknowledge:
		switch f.Phase {
		case wire.AckSubscription:
			b.handleSubAck(l, *f)
		case wire.AckChannelUp:
			b.handleChannelUp(l, *f)
		}
	case wire.KindChannelConn:
		b.handleChannelConnect(l, *f)
	case wire.KindSubscription:
		// A subscription's answer to this CB's PUBLICATION, said over the
		// link instead of to the segment.
		b.handleSubscriptionBroadcast(*f)
	case wire.KindUpdateAttrs:
		b.handleUpdate(l, f)
	case wire.KindHeartbeat:
		// The read loop already counted the frame for liveness; apply any
		// credit counts for reliable channels riding this link (immediate
		// grants and the periodic piggyback both arrive this way —
		// heartbeats are the one frame every build accepts, so credits
		// never churn a legacy link).
		if pairs, ok := f.Attrs.Int64s(wire.AttrCreditCounts); ok {
			for i := 0; i+1 < len(pairs); i += 2 {
				b.applyCredit(l, uint32(pairs[i]), uint32(pairs[i+1]))
			}
		}
	case wire.KindBye:
		if f.Channel != 0 {
			// Channel-scoped BYE: one registration withdrew (an LP
			// closed); only its virtual channel dies, the link and all
			// other channels stay up.
			b.dropChannel(l, f.Channel)
		} else {
			b.linkDown(l)
		}
	case wire.KindFrameReady, wire.KindFrameSwap:
		// Barrier traffic is routed as regular channel updates by the
		// displaysync package; bare frames of these kinds are ignored.
	}
}

// handleSubAck is the subscriber side of step 2: a publisher acknowledged
// our SUBSCRIPTION, so reply with CHANNEL CONNECTION carrying the new
// channel ID (§2.3).
func (b *Backbone) handleSubAck(l *peerLink, f wire.Frame) {
	// Keyed by the *publisher's* node: a subscriber may hold one channel
	// from each publisher node of the class.
	key := chanKey{peer: f.Node, subLP: f.LP, class: f.Class}
	skey := classLP{class: f.Class, lp: f.LP}

	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return
	}
	sub, ok := b.subs[skey]
	if !ok {
		b.mu.Unlock()
		return // subscription was withdrawn meanwhile
	}
	if _, dup := b.inSubKeys[key]; dup {
		b.mu.Unlock()
		return // channel from this publisher node already exists/pending
	}
	b.nextChan++
	id := b.nextChan
	ic := newInChannel(id, key, l, sub)
	b.ins.set(id, ic)
	b.inSubKeys[key] = id
	sub.channels[id] = ic
	b.mu.Unlock()

	conn := wire.Frame{
		Kind:    wire.KindChannelConn,
		Channel: id,
		Node:    b.node,
		LP:      f.LP,
		Class:   f.Class,
		Addr:    b.ifc.Addr(),
	}
	// The delivery policy rides the handshake as control attributes. A
	// drop-oldest subscription sends none — exactly what a legacy peer
	// sends — so policy-less handshakes keep today's semantics on both
	// old and new publishers.
	if sub.policy != wire.PolicyDropOldest {
		conn.Attrs = wire.AttrSet{}
		conn.Attrs.PutUint32(wire.AttrDeliveryPolicy, uint32(sub.policy))
		if sub.policy == wire.PolicyReliable {
			conn.Attrs.PutUint32(wire.AttrCreditWindow, sub.window)
		}
	}
	if err := l.send(conn); err != nil {
		b.linkDown(l)
	}
}

// handleChannelConnect is the publisher side of step 3: record the new
// out-channel — with the delivery policy the subscriber declared, or
// legacy drop-oldest when the handshake carries no policy attribute — and
// confirm with the second ACKNOWLEDGE.
func (b *Backbone) handleChannelConnect(l *peerLink, f wire.Frame) {
	key := chanKey{peer: f.Node, subLP: f.LP, class: f.Class}

	policy := wire.PolicyDropOldest
	if v, ok := f.Attrs.Uint32(wire.AttrDeliveryPolicy); ok && wire.Policy(v).Valid() {
		policy = wire.Policy(v)
	}
	var window uint32
	if v, ok := f.Attrs.Uint32(wire.AttrCreditWindow); ok {
		window = v
	}

	b.mu.Lock()
	if b.closed.Load() {
		b.mu.Unlock()
		return
	}
	if _, dup := b.outKeys[key]; dup {
		b.mu.Unlock()
		return
	}
	oc := newOutChannel(f.Class, key, l, nil, f.Channel, policy, window)
	b.addOutLocked(oc)
	b.mu.Unlock()
	b.stats.ChannelsUp.Inc()

	up := wire.Frame{
		Kind:    wire.KindAcknowledge,
		Phase:   wire.AckChannelUp,
		Channel: f.Channel,
		Node:    b.node,
		LP:      f.LP,
		Class:   f.Class,
	}
	if err := l.send(up); err != nil {
		b.linkDown(l)
	}
}

// handleChannelUp is the subscriber receiving the final ACKNOWLEDGE: the
// publisher has recorded its half, so the channel is now established and
// the subscription counts as matched (§2.3: "an ACKNOWLEDGE message will
// be received again if such a virtual channel is successfully built").
func (b *Backbone) handleChannelUp(l *peerLink, f wire.Frame) {
	b.mu.Lock()
	defer b.mu.Unlock()
	ic, ok := b.ins.get(f.Channel)
	if !ok || ic.link != l {
		return // torn down meanwhile, or misdirected
	}
	ic.established = true
	if ic.sub != nil {
		b.noteMatchedLocked(ic.sub)
	}
	b.edgeLocked()
}

// handleUpdate routes an inbound UPDATE frame to the subscriber LP
// bound to the virtual channel and delivers it as a reflection. The
// reflection owns the frame it arrived in (the ownership rule, package
// wire): the frame's attributes move into it, storage and all, and the read
// loop's frame is left with storage a consumer released, or with none.
func (b *Backbone) handleUpdate(l *peerLink, f *wire.Frame) {
	ic, ok := b.ins.get(f.Channel)
	if !ok {
		return // stale channel (e.g. torn down moments ago)
	}
	r := Reflection{
		Class:   f.Class,
		PubNode: f.Node,
		PubLP:   f.LP,
		Channel: f.Channel,
		Seq:     f.Seq,
		Time:    f.Time,
	}
	if f.Attrs.Len() > 0 {
		r.Attrs, r.link = f.Attrs, l
		f.Attrs = wire.AttrSet{}
		l.mu.Lock()
		if n := len(l.free); n > 0 {
			f.Attrs, l.free = l.free[n-1], l.free[:n-1]
		}
		l.mu.Unlock()
	}
	b.deliver(ic.sub, &r)
}

// applyCredit folds a cumulative consumption report — an immediate grant
// or the periodic heartbeat piggyback — into the addressed out-channel's
// window, waking any publisher stalled on it.
func (b *Backbone) applyCredit(l *peerLink, id, cum uint32) {
	b.mu.Lock()
	oc := b.outByChan[linkChan{link: l, id: id}]
	b.mu.Unlock()
	if oc != nil {
		oc.setConsumed(cum)
	}
}

// dropChannel tears down one virtual channel identified by the
// subscriber-assigned ID, on whichever side receives the scoped BYE.
func (b *Backbone) dropChannel(l *peerLink, id uint32) {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Publisher side: remove the out-channel riding this link.
	b.removeOutsLocked(func(oc *outChannel) bool { return oc.link == l && oc.remoteChan == id })
	// Subscriber side: remove the in-channel and re-arm discovery.
	if ic, ok := b.ins.get(id); ok && ic.link == l {
		b.removeInLocked(ic)
	}
}

// WaitMatchedContext blocks until the subscription has at least one fully
// established channel or ctx is done, in which case it returns ctx.Err().
func (s *Subscription) WaitMatchedContext(ctx context.Context) error {
	return s.b.waitChange(ctx, s.Matched)
}
