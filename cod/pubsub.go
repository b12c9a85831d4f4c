package cod

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"unsafe"

	"codsim/internal/cb"
	"codsim/internal/wire"
)

// Errors of the typed façade.
var (
	// ErrNoSubscribers reports an Update that was routed into zero virtual
	// channels — nobody is listening (yet). The update is not an error of
	// the backbone, so publishers free-running ahead of discovery ignore
	// it with errors.Is; publishers that must be heard treat it as fatal
	// or WaitChannels first.
	ErrNoSubscribers = errors.New("cod: no subscribers")
	// ErrClosed re-exports the backbone's closed error.
	ErrClosed = cb.ErrClosed
	// ErrHandleClosed re-exports the registration-handle closed error,
	// returned by Sub.Next when the subscription is closed mid-wait.
	ErrHandleClosed = cb.ErrHandleClosed
	// ErrWindowFull re-exports the backbone's credit-exhaustion error: an
	// Update found a Reliable subscriber's send window full, so that
	// subscriber got nothing. Retry after it consumes, or use
	// UpdateContext to block for credits.
	ErrWindowFull = cb.ErrWindowFull
)

// SubOption configures a subscription; the SDK re-exports the backbone's
// delivery modes under the same names.
type SubOption = cb.SubscribeOption

// WithQueue sets the mailbox depth. What happens on overflow is the
// subscription's delivery policy: LatestValue (the SDK default) conflates
// to the newest reflection per channel, Reliable never overflows (the
// publisher stalls first).
func WithQueue(depth int) SubOption { return cb.WithQueue(depth) }

// LatestValue selects the conflating delivery policy, the SDK default: a
// full mailbox coalesces to the newest reflection per virtual channel.
// Right for periodic state (60 Hz crane state, motion cues) — memory
// stays bounded under a stalled consumer, which resumes on the freshest
// sample from every publisher.
func LatestValue() SubOption { return cb.WithLatestValue() }

// Reliable selects the credit-windowed delivery policy: nothing is ever
// dropped. Each publisher may have at most window unconsumed updates in
// flight to this subscription; past that its Update reports ErrWindowFull
// (or UpdateContext blocks) until this subscriber consumes — saturation
// propagates to the producer instead of the kernel buffer. window <= 0
// uses the backbone default (64). Right for must-not-lose traffic:
// instructor commands, exam results, batch jobs.
func Reliable(window int) SubOption { return cb.WithReliable(window) }

// Reflection is one delivered update, decoded into the subscriber's type:
// the typed view of REFLECT ATTRIBUTE VALUE.
type Reflection[T any] struct {
	// Value is the decoded update.
	Value T
	// Class is the object class the update belongs to.
	Class string
	// PubNode and PubLP identify the publishing node and logical process.
	PubNode string
	PubLP   string
	// Seq is the per-channel sequence number.
	Seq uint32
	// Time is the publisher's simulation time.
	Time float64
}

// Pub is a typed publisher registration: LP lp publishes object class
// class as values of T. Obtain it from Publish.
type Pub[T any] struct {
	pub   *cb.Publication
	codec *codec

	mu      sync.Mutex   // one update at a time, credit stalls included
	scratch wire.AttrSet // the encode scratch, guarded by mu
}

// Publish registers lp on node as a publisher of class, exchanging values
// of struct type T (see the codec contract in this package's doc). It
// fails fast when T has a field the codec cannot map.
func Publish[T any](node *Node, lp, class string) (*Pub[T], error) {
	c, err := codecFor(reflect.TypeFor[T]())
	if err != nil {
		return nil, err
	}
	p, err := node.bb.PublishObjectClass(lp, class)
	if err != nil {
		return nil, err
	}
	return &Pub[T]{pub: p, codec: c}, nil
}

// Update pushes v into every virtual channel of the class (UPDATE
// ATTRIBUTE VALUE) at simulation time simTime. When the class currently
// has no channels the call still succeeds at the backbone but reports
// ErrNoSubscribers, so callers choose between fire-and-forget
// (errors.Is-ignore) and must-be-heard semantics. A Reliable subscriber
// whose credit window is exhausted is skipped with ErrWindowFull; see
// UpdateContext for the blocking form.
func (p *Pub[T]) Update(simTime float64, v T) error {
	return p.update(nil, simTime, &v)
}

// UpdateContext is Update that blocks while any Reliable subscriber's
// credit window is exhausted, resuming as credits are granted; ctx bounds
// the stall (ctx.Err() on cancellation). This is the publish side of the
// backpressure contract: a saturated subscriber slows the producer down
// instead of losing data. A Pub publishes one update at a time, so a
// stalled UpdateContext holds up every other call on the same Pub.
func (p *Pub[T]) UpdateContext(ctx context.Context, simTime float64, v T) error {
	return p.update(ctx, simTime, &v)
}

// update encodes v into the Pub's scratch set and pushes it, blocking for
// credits when ctx is not nil. The backbone serializes or clones the set
// before it returns (the ownership rule, package wire), so the next update
// reuses the same arena.
func (p *Pub[T]) update(ctx context.Context, simTime float64, v *T) error {
	p.mu.Lock()
	p.codec.encodeInto(&p.scratch, unsafe.Pointer(v))
	var routed int
	var err error
	if ctx == nil {
		routed, err = p.pub.UpdateRouted(simTime, p.scratch)
	} else {
		routed, err = p.pub.UpdateRoutedContext(ctx, simTime, p.scratch)
	}
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if routed == 0 {
		return ErrNoSubscribers
	}
	return nil
}

// Channels returns the number of virtual channels currently carrying the
// class.
func (p *Pub[T]) Channels() int { return p.pub.Channels() }

// WaitChannels blocks until the class has at least n channels or ctx is
// done, in which case it returns ctx.Err().
func (p *Pub[T]) WaitChannels(ctx context.Context, n int) error {
	return p.pub.WaitChannelsContext(ctx, n)
}

// NotifyC returns a channel receiving a token whenever the class's channel
// set changes — a subscriber matched, left or died — so a select loop can
// act on a join the moment it happens; Channels tells which way it went.
func (p *Pub[T]) NotifyC() <-chan struct{} { return p.pub.NotifyC() }

// Close withdraws the publisher registration.
func (p *Pub[T]) Close() error { return p.pub.Close() }

// Sub is a typed subscriber registration: LP lp receives class updates
// decoded into T. Obtain it from Subscribe.
type Sub[T any] struct {
	sub   *cb.Subscription
	codec *codec
}

// Subscribe registers lp on node as a subscriber of class, receiving
// values of struct type T. The node's backbone broadcasts SUBSCRIPTION at
// once and answers a late publisher's solicit the same way, so either
// order of arrival matches in one round trip (dynamic join); the periodic
// re-broadcast afterwards only repairs a lost datagram. It fails fast when
// T has a field the codec cannot map.
//
// The default delivery policy at this layer is LatestValue — typed state
// subscribers want the newest value, and an SDK consumer that stalls
// should cost memory-bounded conflation, not unbounded growth or blind
// drops. Pass Reliable(window) for must-not-lose classes.
func Subscribe[T any](node *Node, lp, class string, opts ...SubOption) (*Sub[T], error) {
	c, err := codecFor(reflect.TypeFor[T]())
	if err != nil {
		return nil, err
	}
	// The SDK default leads; an explicit policy option among opts lands
	// later in the slice and overrides it.
	opts = append([]SubOption{cb.WithLatestValue()}, opts...)
	s, err := node.bb.SubscribeObjectClass(lp, class, opts...)
	if err != nil {
		return nil, err
	}
	return &Sub[T]{sub: s, codec: c}, nil
}

// decode converts one backbone reflection into the typed form and hands
// its attribute storage back to the backbone: decodeInto copies every
// value out (strings and slices included), so nothing of r.Attrs escapes
// into the result and this is the subscriber-side release point.
func (s *Sub[T]) decode(r *cb.Reflection, out *Reflection[T]) error {
	out.Class, out.PubNode, out.PubLP = r.Class, r.PubNode, r.PubLP
	out.Seq, out.Time = r.Seq, r.Time
	err := s.codec.decodeInto(&r.Attrs, unsafe.Pointer(&out.Value))
	r.Release()
	return err
}

// Next blocks until an update arrives, ctx is done (ctx.Err()), or the
// subscription closes (ErrHandleClosed). A decode failure (class shape
// mismatch) is returned as an ErrMissingAttr error.
func (s *Sub[T]) Next(ctx context.Context) (r Reflection[T], err error) {
	raw, err := s.sub.NextContext(ctx)
	if err != nil {
		return r, err
	}
	err = s.decode(&raw, &r)
	return r, err
}

// Poll returns the oldest buffered update without blocking; ok is false
// when none is buffered.
func (s *Sub[T]) Poll() (r Reflection[T], ok bool, err error) {
	raw, got := s.sub.Poll()
	if !got {
		return Reflection[T]{}, false, nil
	}
	err = s.decode(&raw, &r)
	return r, true, err
}

// Latest drains the mailbox and returns the newest update; ok is false
// when the mailbox held none. Convenient for conflated state classes. The
// updates it skips over are released undecoded.
func (s *Sub[T]) Latest() (r Reflection[T], ok bool, err error) {
	raw, ok := s.sub.Latest()
	if !ok {
		return r, false, nil
	}
	err = s.decode(&raw, &r)
	return r, true, err
}

// WaitMatched blocks until the subscription has at least one fully
// established virtual channel or ctx is done, in which case it returns
// ctx.Err().
func (s *Sub[T]) WaitMatched(ctx context.Context) error {
	return s.sub.WaitMatchedContext(ctx)
}

// Matched reports whether at least one virtual channel is fully
// established.
func (s *Sub[T]) Matched() bool { return s.sub.Matched() }

// Pending returns the number of buffered updates.
func (s *Sub[T]) Pending() int { return s.sub.Pending() }

// NotifyC returns a channel receiving a token whenever the mailbox goes
// from empty to non-empty, for select-based consumers.
func (s *Sub[T]) NotifyC() <-chan struct{} { return s.sub.NotifyC() }

// Close withdraws the subscriber registration and releases its channels.
func (s *Sub[T]) Close() error { return s.sub.Close() }
