package cb

import (
	"context"
	"sync"

	"codsim/internal/wire"
)

// mailbox is the bounded per-subscription buffer: a ring whose overflow
// behavior follows the subscription's delivery policy, plus an
// empty→non-empty notification channel.
//
//   - PolicyDropOldest: overflow drops the oldest reflection (legacy).
//   - PolicyLatestValue: overflow coalesces to the newest reflection per
//     channel — the oldest buffered entry of the incoming reflection's
//     channel is replaced. When no same-channel entry exists (more
//     publishers than depth), the oldest overall is dropped.
//   - PolicyReliable: nothing is dropped; the ring grows. Growth is
//     bounded by the credit windows the subscription granted — publishers
//     stall before exceeding them — plus whatever a policy-ignorant
//     legacy publisher pushes.
//
// A reflection the mailbox discards (dropped or conflated away) was seen
// by nobody else, so the mailbox releases its storage itself.
type mailbox struct {
	mu     sync.Mutex
	policy wire.Policy
	// grantEvery batches a reliable subscription's credit grants: one per
	// quarter window keeps credit traffic at ~4 frames per window without
	// letting it run dry; the heartbeat piggyback covers what the
	// batching holds back.
	grantEvery uint32
	buf        []Reflection
	head       int
	n          int
	closed     bool
	notify     chan struct{}
	stats      *Stats
	// chans is the per-channel bookkeeping, one record per virtual channel
	// so that a push or a poll looks its channel up once.
	chans map[uint32]*chanBook
	// totals is the subscription-lifetime sum of the channel tallies:
	// unlike the per-channel records it survives forgetChannel, so
	// row-level delivered/dropped/conflated counts stay monotonic across
	// link churn (a standing dist worker outlives many coordinators'
	// virtual channels). Channel and Peer are unused.
	totals ChannelTally
}

// chanBook is what a mailbox keeps per virtual channel.
type chanBook struct {
	// tally is the loss accounting surfaced in Backbone.Tables, so a lossy
	// channel can be named instead of inferred from the backbone total.
	tally ChannelTally
	// Credit accounting of a reliable subscription: the cumulative
	// consumption count the publisher's window runs on, and its value at
	// the last grant sent.
	consumed  uint32
	lastGrant uint32
	// buffered counts the channel's reflections in the ring, so
	// latest-value victim selection stays O(depth) instead of an
	// O(depth²) duplicate scan while the mailbox is full.
	buffered int
	// gone marks a torn-down channel whose record is kept only because
	// reflections of it are still buffered; it counts nothing any more
	// and goes when the last of them leaves.
	gone bool
}

// ChannelTally is one virtual channel's loss accounting at a subscription
// mailbox.
type ChannelTally struct {
	Channel   uint32
	Peer      string // publishing node; filled by Tables
	Delivered uint64 // reflections buffered into the mailbox (frames in)
	Dropped   uint64 // reflections dropped (drop-oldest overflow)
	Conflated uint64 // reflections coalesced (latest-value overflow)
}

func newMailbox(depth int, policy wire.Policy, grantEvery uint32, stats *Stats) *mailbox {
	return &mailbox{
		policy:     policy,
		grantEvery: grantEvery,
		buf:        make([]Reflection, depth),
		notify:     make(chan struct{}, 1),
		stats:      stats,
		chans:      make(map[uint32]*chanBook),
	}
}

// forgetChannel drops a torn-down channel's credit and loss bookkeeping.
// Without this a long-lived subscription under link churn (a standing
// dist worker across coordinator restarts) accumulates a ghost entry per
// dead channel forever — and Tables would keep reporting them with no
// peer to attribute. Buffered reflections stay: they are real data the
// consumer may still drain, and their record goes with the last of them.
func (m *mailbox) forgetChannel(id uint32) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bk := m.chans[id]
	if bk == nil {
		return
	}
	if bk.buffered == 0 {
		delete(m.chans, id)
		return
	}
	*bk = chanBook{buffered: bk.buffered, gone: true}
}

// consumedCount reads channel id's cumulative consumption (the heartbeat
// piggyback reads this under b.mu; the lock order b.mu → m.mu is safe
// because no mailbox method acquires b.mu).
func (m *mailbox) consumedCount(id uint32) uint32 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if bk := m.chans[id]; bk != nil {
		return bk.consumed
	}
	return 0
}

// at returns a pointer to the i-th buffered reflection (0 = oldest).
// Caller holds m.mu.
func (m *mailbox) at(i int) *Reflection { return &m.buf[(m.head+i)%len(m.buf)] }

// discard removes the i-th buffered reflection unseen, counting it on its
// channel as dropped or conflated, and shifts newer entries down. Caller
// holds m.mu.
func (m *mailbox) discard(i int, conflated bool) {
	r := m.at(i)
	bk := m.chans[r.Channel]
	if conflated {
		bk.tally.Conflated++
		m.totals.Conflated++
		m.stats.Conflations.Inc()
	} else {
		bk.tally.Dropped++
		m.totals.Dropped++
		m.stats.MailboxDropped.Inc()
	}
	m.left(r.Channel, bk)
	r.Release()
	if i == 0 {
		*r = Reflection{}
		m.head = (m.head + 1) % len(m.buf)
	} else {
		for j := i; j < m.n-1; j++ {
			*m.at(j) = *m.at(j + 1)
		}
		*m.at(m.n - 1) = Reflection{}
	}
	m.n--
}

// left counts one reflection of channel id out of the ring. Caller holds
// m.mu.
func (m *mailbox) left(id uint32, bk *chanBook) {
	bk.buffered--
	if bk.gone && bk.buffered == 0 {
		delete(m.chans, id) // keep the map bounded by live channels
	}
}

func (m *mailbox) push(r *Reflection) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		r.Release()
		return
	}
	bk := m.chans[r.Channel]
	if bk == nil {
		bk = &chanBook{tally: ChannelTally{Channel: r.Channel}}
		m.chans[r.Channel] = bk
	}
	// A straggler of a torn-down channel makes its record current again,
	// counting from zero as a first push would.
	bk.gone = false
	if m.n == len(m.buf) {
		switch m.policy {
		case wire.PolicyReliable:
			// Never drop: grow the ring (see the type comment for why this
			// stays bounded in practice).
			grown := make([]Reflection, 2*len(m.buf))
			for i := 0; i < m.n; i++ {
				grown[i] = *m.at(i)
			}
			m.buf, m.head = grown, 0
		case wire.PolicyLatestValue:
			// Coalesce to newest-per-channel: replace the oldest buffered
			// reflection of this channel, keeping per-channel seq order
			// (an older entry leaves, the newest lands at the tail). With
			// no same-channel entry, conflate the oldest entry of any
			// channel buffered more than once — a transient arrival
			// imbalance must not evict another channel's only sample. A
			// drop happens only when every slot holds a distinct channel,
			// i.e. the depth is smaller than the live publisher count.
			// The buffered counts keep victim selection one O(depth)
			// scan, not an O(depth²) duplicate search per push.
			victim := -1
			for i := 0; i < m.n && victim < 0; i++ {
				if ch := m.at(i).Channel; ch == r.Channel ||
					bk.buffered == 0 && m.chans[ch].buffered >= 2 {
					victim = i
				}
			}
			if victim >= 0 {
				m.discard(victim, true)
			} else {
				m.discard(0, false)
			}
		default: // drop oldest
			m.discard(0, false)
		}
	}
	m.buf[(m.head+m.n)%len(m.buf)] = *r
	m.n++
	bk.buffered++
	bk.tally.Delivered++
	m.totals.Delivered++
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}

// rowTallies returns the subscription-lifetime totals — the cumulative
// delivered/dropped/conflated counts across every virtual channel the
// subscription ever had, including torn-down ones.
func (m *mailbox) rowTallies() ChannelTally {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totals
}

// channelTallies snapshots the per-channel loss counters of the live
// channels.
func (m *mailbox) channelTallies() []ChannelTally {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ChannelTally, 0, len(m.chans))
	for _, bk := range m.chans {
		if !bk.gone {
			out = append(out, bk.tally)
		}
	}
	return out
}

// poll moves the oldest buffered reflection, if there is one, into r. On a
// reliable subscription the same critical section counts it consumed, and
// grant reports that cum, the channel's cumulative consumption, is due to
// be sent to its publisher: every grantEvery-th consumption, and the
// first, which tells a publisher at once that its subscriber drains.
func (m *mailbox) poll(r *Reflection) (cum uint32, grant, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.n == 0 {
		return 0, false, false
	}
	*r = m.buf[m.head]
	m.buf[m.head] = Reflection{} // release references
	m.head = (m.head + 1) % len(m.buf)
	m.n--
	bk := m.chans[r.Channel]
	if m.policy == wire.PolicyReliable && !bk.gone {
		bk.consumed++
		if bk.consumed-bk.lastGrant >= m.grantEvery || bk.consumed == 1 {
			bk.lastGrant = bk.consumed
			grant = true
		}
		cum = bk.consumed
	}
	m.left(r.Channel, bk)
	return cum, grant, true
}

// nextCtx is poll that waits for a reflection, for ctx, or for close.
func (m *mailbox) nextCtx(ctx context.Context, r *Reflection) (uint32, bool, error) {
	for {
		if cum, grant, ok := m.poll(r); ok {
			return cum, grant, nil
		}
		m.mu.Lock()
		closed := m.closed
		m.mu.Unlock()
		if closed {
			return 0, false, ErrHandleClosed
		}
		select {
		case <-m.notify:
		case <-ctx.Done():
			// A push may have raced with the cancellation; prefer data.
			if cum, grant, ok := m.poll(r); ok {
				return cum, grant, nil
			}
			return 0, false, ctx.Err()
		}
	}
}

func (m *mailbox) pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

func (m *mailbox) close() {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	select {
	case m.notify <- struct{}{}:
	default:
	}
}
