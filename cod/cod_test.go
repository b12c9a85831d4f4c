package cod_test

import (
	"context"
	"errors"
	"net"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"

	"codsim/cod"
	"codsim/internal/clock"
)

// craneState is the typed quickstart class: every supported field family
// crossing two nodes of one federation.
type craneState struct {
	X, Y, Slew float64
	Frame      int
	EngineOn   bool
	Operator   string
	Loads      []float64
	Tags       []string
}

const waitLong = 10 * time.Second

func ctxLong(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), waitLong)
	t.Cleanup(cancel)
	return ctx
}

// TestTypedRoundTrip proves the acceptance path: typed publish on one
// node, reflect delivery on another, with context-based waiting end to
// end.
func TestTypedRoundTrip(t *testing.T) {
	fed := cod.NewFederation()
	defer fed.Close()

	dyn, err := fed.Node("dynamics-pc")
	if err != nil {
		t.Fatal(err)
	}
	vis, err := fed.Node("display-pc")
	if err != nil {
		t.Fatal(err)
	}

	pub, err := cod.Publish[craneState](dyn, "dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cod.Subscribe[craneState](vis, "visual", "CraneState", cod.WithQueue(16))
	if err != nil {
		t.Fatal(err)
	}

	ctx := ctxLong(t)
	if err := sub.WaitMatched(ctx); err != nil {
		t.Fatalf("WaitMatched: %v", err)
	}
	if err := pub.WaitChannels(ctx, 1); err != nil {
		t.Fatalf("WaitChannels: %v", err)
	}

	want := craneState{
		X: 12.5, Y: -3, Slew: 0.7,
		Frame:    99,
		EngineOn: true,
		Operator: "trainee",
		Loads:    []float64{2.25, 4.5},
		Tags:     []string{"hook", "cargo"},
	}
	if err := pub.Update(1.5, want); err != nil {
		t.Fatalf("Update: %v", err)
	}

	r, err := sub.Next(ctx)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if r.Value.X != want.X || r.Value.Frame != want.Frame ||
		r.Value.Operator != want.Operator || !r.Value.EngineOn ||
		len(r.Value.Loads) != 2 || r.Value.Loads[1] != 4.5 ||
		len(r.Value.Tags) != 2 || r.Value.Tags[0] != "hook" {
		t.Fatalf("reflected value mismatch: %+v", r.Value)
	}
	if r.PubNode != "dynamics-pc" || r.PubLP != "dynamics" || r.Time != 1.5 {
		t.Fatalf("reflection metadata mismatch: %+v", r)
	}
}

func TestUpdateNoSubscribers(t *testing.T) {
	fed := cod.NewFederation()
	defer fed.Close()
	n, err := fed.Node("lonely-pc")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := cod.Publish[craneState](n, "dynamics", "LonelyState")
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Update(0, craneState{}); !errors.Is(err, cod.ErrNoSubscribers) {
		t.Fatalf("Update with no channels: got %v, want ErrNoSubscribers", err)
	}
	// Once a subscriber matches, the same call succeeds.
	sub, err := cod.Subscribe[craneState](n, "visual", "LonelyState")
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitMatched(ctxLong(t)); err != nil {
		t.Fatal(err)
	}
	if err := pub.Update(1, craneState{}); err != nil {
		t.Fatalf("Update with a subscriber: %v", err)
	}
}

// doneWatch is a context that tells when its Done channel is first asked
// for: a wait selects on Done only once it has found nothing to return,
// so asked closing means the waiter is at (or in) its select.
type doneWatch struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func watchDone(ctx context.Context) *doneWatch {
	return &doneWatch{Context: ctx, asked: make(chan struct{})}
}

func (w *doneWatch) Done() <-chan struct{} {
	w.once.Do(func() { close(w.asked) })
	return w.Context.Done()
}

func TestNextContextCancel(t *testing.T) {
	fed := cod.NewFederation()
	defer fed.Close()
	n, err := fed.Node("pc")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cod.Subscribe[craneState](n, "visual", "CraneState")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	waiting := watchDone(ctx)
	done := make(chan error, 1)
	go func() {
		_, err := sub.Next(waiting)
		done <- err
	}()
	<-waiting.asked // Next is at its wait
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Next after cancel: got %v, want context.Canceled", err)
		}
	case <-time.After(waitLong):
		t.Fatal("Next never returned after cancellation")
	}

	// A closed subscription unblocks Next with ErrHandleClosed.
	waiting = watchDone(context.Background())
	go func() {
		_, err := sub.Next(waiting)
		done <- err
	}()
	<-waiting.asked
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, cod.ErrHandleClosed) {
			t.Fatalf("Next after Close: got %v, want ErrHandleClosed", err)
		}
	case <-time.After(waitLong):
		t.Fatal("Next never returned after Close")
	}
}

func TestShapeMismatchSurfaces(t *testing.T) {
	type narrow struct{ A float64 }
	type wide struct{ A, B float64 }

	fed := cod.NewFederation()
	defer fed.Close()
	p, err := fed.Node("pub-pc")
	if err != nil {
		t.Fatal(err)
	}
	s, err := fed.Node("sub-pc")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := cod.Publish[narrow](p, "pub", "Mismatch")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cod.Subscribe[wide](s, "sub", "Mismatch")
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxLong(t)
	if err := sub.WaitMatched(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pub.Update(0, narrow{A: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(ctx); !errors.Is(err, cod.ErrMissingAttr) {
		t.Fatalf("mismatched shapes: got %v, want ErrMissingAttr", err)
	}
}

func TestFederationPropagatesErrorsAndCloses(t *testing.T) {
	fed := cod.NewFederation()
	a, err := fed.Node("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fed.Node("a"); err == nil {
		t.Fatal("duplicate node name was accepted")
	}

	if err := fed.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Nodes are gone and the federation refuses new ones.
	if err := a.Close(); err != nil {
		t.Fatalf("double node close: %v", err)
	}
	if _, err := fed.Node("b"); !errors.Is(err, cod.ErrFederationClosed) {
		t.Fatalf("Node after Close: got %v, want ErrFederationClosed", err)
	}
}

// TestFederationSharesUDPSegment pins the defaults-resolved-once rule: a
// WithUDP default must yield ONE segment whose bookkeeping rejects
// duplicate node names, not a fresh LAN per node.
func TestFederationSharesUDPSegment(t *testing.T) {
	fed := cod.NewFederation(cod.WithUDP("127.0.0.1:39700"))
	defer fed.Close()
	if _, err := fed.Node("a"); err != nil {
		t.Skipf("loopback UDP unavailable: %v", err)
	}
	if _, err := fed.Node("a"); err == nil {
		t.Fatal("duplicate node name accepted on a UDP federation")
	}
}

// TestWithUDPRejectsBadAddress pins the parse errors of the one address
// that reaches the SDK from outside the program (codbatch -lan): both
// entry points return the parser's error wrapped, with no node and so no
// socket behind it.
func TestWithUDPRejectsBadAddress(t *testing.T) {
	for _, tc := range []struct {
		addr string
		want any
	}{
		{"127.0.0.1", new(*net.AddrError)},
		{"127.0.0.1:base", new(*strconv.NumError)},
	} {
		n, err := cod.NewNode("pc", cod.WithUDP(tc.addr))
		if n != nil || !errors.As(err, tc.want) {
			t.Errorf("NewNode(WithUDP(%q)) = %v, %v; want no node and the parser's error wrapped", tc.addr, n, err)
		}
		fed := cod.NewFederation(cod.WithUDP(tc.addr))
		n, err = fed.Node("pc")
		if n != nil || !errors.As(err, tc.want) {
			t.Errorf("Federation.Node with WithUDP(%q) = %v, %v; want no node and the parser's error wrapped", tc.addr, n, err)
		}
		if got := fed.Nodes(); len(got) != 0 {
			t.Errorf("WithUDP(%q): federation tracks %d nodes after a failed Node", tc.addr, len(got))
		}
		if err := fed.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}

// TestNewNodeNeedsASegment: a node names its segment. Without one, or
// with WithLAN(nil), NewNode returns an error and attaches nothing, so the
// name stays free on any segment; a Federation makes its own.
func TestNewNodeNeedsASegment(t *testing.T) {
	for _, opts := range [][]cod.Option{nil, {cod.WithLAN(nil)}} {
		for range 2 { // a node attached anywhere would make the second a duplicate
			if n, err := cod.NewNode("pc", opts...); n != nil || err == nil {
				t.Fatalf("NewNode(%d options) = %v, %v; want no node and an error", len(opts), n, err)
			}
		}
	}
	lan := cod.NewMemLAN()
	n, err := cod.NewNode("pc", cod.WithLAN(lan))
	if err != nil {
		t.Fatalf("NewNode on a segment: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	fed := cod.NewFederation(cod.WithLAN(nil))
	defer fed.Close()
	if _, err := fed.Node("pc"); err != nil {
		t.Fatalf("a Federation whose defaults name no segment: %v", err)
	}
}

func TestPublishRejectsBadType(t *testing.T) {
	type bad struct{ C chan int }
	fed := cod.NewFederation()
	defer fed.Close()
	n, err := fed.Node("pc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cod.Publish[bad](n, "lp", "Bad"); !errors.Is(err, cod.ErrUnsupportedType) {
		t.Fatalf("Publish[bad]: got %v, want ErrUnsupportedType", err)
	}
	if _, err := cod.Subscribe[bad](n, "lp", "Bad"); !errors.Is(err, cod.ErrUnsupportedType) {
		t.Fatalf("Subscribe[bad]: got %v, want ErrUnsupportedType", err)
	}
}

// TestLatestConflation exercises the conflated state-class mode through
// the typed façade.
func TestLatestConflation(t *testing.T) {
	fed := cod.NewFederation()
	defer fed.Close()
	n, err := fed.Node("pc")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := cod.Publish[craneState](n, "dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cod.Subscribe[craneState](n, "visual", "CraneState", cod.WithQueue(1), cod.LatestValue())
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitMatched(ctxLong(t)); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := pub.Update(float64(i), craneState{Frame: i}); err != nil {
			t.Fatal(err)
		}
	}
	r, ok, err := sub.Latest()
	if err != nil || !ok {
		t.Fatalf("Latest: ok=%v err=%v", ok, err)
	}
	if r.Value.Frame != 5 {
		t.Fatalf("Latest kept frame %d, want 5 (conflation)", r.Value.Frame)
	}
}

// TestReliableWindowSDK pins the SDK backpressure surface: a Reliable
// subscriber's exhausted window surfaces as ErrWindowFull on Update,
// UpdateContext blocks until the subscriber consumes, and nothing is
// lost across the stall.
func TestReliableWindowSDK(t *testing.T) {
	fed := cod.NewFederation()
	defer fed.Close()
	pubPC, err := fed.Node("pub-pc")
	if err != nil {
		t.Fatal(err)
	}
	subPC, err := fed.Node("sub-pc")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := cod.Publish[craneState](pubPC, "dynamics", "Cmd")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cod.Subscribe[craneState](subPC, "worker", "Cmd", cod.Reliable(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.WaitMatched(ctxLong(t)); err != nil {
		t.Fatal(err)
	}
	if err := pub.WaitChannels(ctxLong(t), 1); err != nil {
		t.Fatal(err)
	}

	if err := pub.Update(1, craneState{Frame: 1}); err != nil {
		t.Fatal(err)
	}
	if err := pub.Update(2, craneState{Frame: 2}); err != nil {
		t.Fatal(err)
	}
	// Window of 2 exhausted against the stalled subscriber.
	var stallErr error
	for deadline := time.Now().Add(waitLong); time.Now().Before(deadline); {
		stallErr = pub.Update(3, craneState{Frame: 3})
		if stallErr != nil {
			break
		}
	}
	if !errors.Is(stallErr, cod.ErrWindowFull) {
		t.Fatalf("stalled Update err = %v, want ErrWindowFull", stallErr)
	}

	// The blocking form parks until the subscriber consumes.
	unblocked := make(chan error, 1)
	go func() { unblocked <- pub.UpdateContext(ctxLong(t), 3, craneState{Frame: 3}) }()
	select {
	case err := <-unblocked:
		t.Fatalf("UpdateContext returned %v before consumption", err)
	case <-time.After(50 * time.Millisecond):
	}
	for i := 1; i <= 2; i++ {
		r, err := sub.Next(ctxLong(t))
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.Frame != i {
			t.Fatalf("frame %d arrived as %d", i, r.Value.Frame)
		}
	}
	if err := <-unblocked; err != nil {
		t.Fatalf("release err = %v", err)
	}
	if r, err := sub.Next(ctxLong(t)); err != nil || r.Value.Frame != 3 {
		t.Fatalf("frame 3: %v %v", r.Value.Frame, err)
	}
}

// TestConcurrentUpdatesShareNoScratch: several goroutines Update one Pub,
// whose encode scratch is one set reused by every update. Each writer's
// values differ in every field and in their slices' lengths, so an update
// encoded over another's leftovers, or a scratch rewritten while the
// backbone still reads it, arrives visibly wrong. Run under -race.
func TestConcurrentUpdatesShareNoScratch(t *testing.T) {
	const writers, each = 4, 200
	fed := cod.NewFederation()
	defer fed.Close()
	pubPC, err := fed.Node("pub-pc")
	if err != nil {
		t.Fatal(err)
	}
	subPC, err := fed.Node("sub-pc")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := cod.Publish[craneState](pubPC, "dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cod.Subscribe[craneState](subPC, "visual", "CraneState", cod.Reliable(writers*each))
	if err != nil {
		t.Fatal(err)
	}
	ctx := ctxLong(t)
	if err := sub.WaitMatched(ctx); err != nil {
		t.Fatal(err)
	}
	if err := pub.WaitChannels(ctx, 1); err != nil {
		t.Fatal(err)
	}

	value := func(w, i int) craneState {
		v := craneState{X: float64(w), Y: float64(i), Frame: i, EngineOn: w%2 == 0,
			Operator: "writer-" + strconv.Itoa(w) + "-" + strconv.Itoa(i)}
		for range w + 1 {
			v.Loads = append(v.Loads, float64(i))
			v.Tags = append(v.Tags, v.Operator)
		}
		return v
	}
	errs := make(chan error, writers)
	for w := range writers {
		go func() {
			for i := range each {
				if err := pub.Update(float64(i), value(w, i)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for range writers {
		if err := <-errs; err != nil {
			t.Fatalf("Update: %v", err)
		}
	}

	next := make([]int, writers) // each writer's updates arrive in its order
	for range writers * each {
		r, err := sub.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		w := int(r.Value.X)
		if w < 0 || w >= writers {
			t.Fatalf("an update from no writer: %+v", r.Value)
		}
		want := value(w, next[w])
		if !reflect.DeepEqual(r.Value, want) {
			t.Fatalf("writer %d update %d arrived as %+v, want %+v", w, next[w], r.Value, want)
		}
		next[w]++
	}
}

// TestPubNotifyC is the publisher that must be heard: it says its state
// when a subscriber joins, off NotifyC, on a clock nobody advances so that
// only the join's own edge can deliver it. The subscriber
// is registered first and the publisher's node attached afterwards, the
// late publisher's dynamic join.
func TestPubNotifyC(t *testing.T) {
	fed := cod.NewFederation(cod.WithLAN(cod.NewMemLAN()), cod.WithClock(clock.NewManual()))
	defer fed.Close()
	ctx := ctxLong(t)

	vis, err := fed.Node("display-pc")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := cod.Subscribe[craneState](vis, "visual", "CraneState", cod.Reliable(4))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := fed.Node("dynamics-pc")
	if err != nil {
		t.Fatal(err)
	}
	pub, err := cod.Publish[craneState](dyn, "dynamics", "CraneState")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-pub.NotifyC():
	case <-ctx.Done():
		t.Fatal("no token for the subscriber that joined")
	}
	if n := pub.Channels(); n != 1 {
		t.Fatalf("token with %d channels, want 1", n)
	}
	if err := pub.Update(1, craneState{Frame: 7}); err != nil {
		t.Fatalf("Update after the join: %v", err)
	}
	r, err := sub.Next(ctx)
	if err != nil || r.Value.Frame != 7 {
		t.Fatalf("Next = %+v, %v; want frame 7", r.Value, err)
	}
}
