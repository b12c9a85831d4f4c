package displaysync

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"codsim/internal/cb"
	"codsim/internal/clock"
	"codsim/internal/fom"
	"codsim/internal/transport"
)

const waitLong = 5 * time.Second

// eventually polls cond until it holds, and fails the test if it does not
// within waitLong. For server state that has no edge to wait on.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	deadline := time.After(waitLong)
	for !cond() {
		select {
		case <-tick.C:
		case <-deadline:
			t.Fatalf("never %s", what)
		}
	}
}

// newBackbone attaches a node on clk (nil: the wall clock), closed at the
// test's end.
func newBackbone(t *testing.T, lan transport.LAN, node string, clk clock.Clock) *cb.Backbone {
	t.Helper()
	bb, err := cb.New(lan, node, cb.Config{Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bb.Close() })
	return bb
}

// rig builds a sync server on its own node plus n display nodes, mirroring
// the paper's rack: display computers 1..n and the synchronization server,
// every node on clk (nil: the wall clock).
func rig(t *testing.T, lan transport.LAN, n int, clk clock.Clock) (*Server, []*Display) {
	t.Helper()
	serverBB := newBackbone(t, lan, "sync-server", clk)
	expected := make([]string, n)
	for i := range expected {
		expected[i] = fmt.Sprintf("display-%d", i+1)
	}
	srv, err := NewServer(serverBB, "sync", ServerConfig{Expected: expected, StallTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(srv.Stop)

	displays := make([]*Display, n)
	for i := range displays {
		d, err := NewDisplay(newBackbone(t, lan, fmt.Sprintf("display-pc-%d", i+1), clk), expected[i])
		if err != nil {
			t.Fatal(err)
		}
		displays[i] = d
	}
	for i, d := range displays {
		if !d.WaitServer(waitLong) {
			t.Fatalf("display %d never linked to sync server", i+1)
		}
	}
	return srv, displays
}

// TestBarrierLockstep renders on a manual clock that each render moves on
// by a millisecond, its simulated cost.
func TestBarrierLockstep(t *testing.T) {
	lan := transport.NewMemLAN()
	clk := clock.NewManual()
	srv, displays := rig(t, lan, 3, clk)

	const frames = 30
	var (
		mu      sync.Mutex
		maxSkew uint32
		active  = map[uint32]int{} // frame → renders in flight
	)
	var wg sync.WaitGroup
	errs := make([]error, len(displays))
	for i, d := range displays {
		wg.Add(1)
		go func(i int, d *Display) {
			defer wg.Done()
			errs[i] = d.RunFrames(frames, waitLong, func(frame uint32) {
				mu.Lock()
				active[frame]++
				// Compute skew across current frame counters.
				var lo, hi uint32 = ^uint32(0), 0
				for _, dd := range displays {
					f := dd.Frame()
					if f < lo {
						lo = f
					}
					if f > hi {
						hi = f
					}
				}
				if skew := hi - lo; skew > maxSkew {
					maxSkew = skew
				}
				mu.Unlock()
				clk.Advance(time.Millisecond) // simulated render cost
			})
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("display %d: %v", i+1, err)
		}
	}
	// The barrier allows at most one frame of skew between displays.
	if maxSkew > 1 {
		t.Errorf("frame skew = %d, want <= 1", maxSkew)
	}
	// Every display completed every frame.
	for i, d := range displays {
		if got := d.Frame(); got != frames {
			t.Errorf("display %d frame = %d, want %d", i+1, got, frames)
		}
		if d.FPS() <= 0 {
			t.Errorf("display %d FPS = %v", i+1, d.FPS())
		}
	}
	// The server counts a swap once it has published it, so the last count
	// may trail the displays' return.
	eventually(t, fmt.Sprintf("counted %d swaps", frames), func() bool { return srv.Swaps() >= frames })
}

// TestBarrierWaitsForSlowest renders on a manual clock: the slow display's
// render moves it on by 20 ms a frame, the fast one's not at all, so both
// displays' frame rates are the slow display's.
func TestBarrierWaitsForSlowest(t *testing.T) {
	lan := transport.NewMemLAN()
	clk := clock.NewManual()
	_, displays := rig(t, lan, 2, clk)

	const frames = 10
	slow := 20 * time.Millisecond
	// The slow display's first render waits for the fast display's, so
	// both displays start their frame timing before the clock first moves.
	started := make(chan struct{})
	var once sync.Once
	renders := []func(uint32){
		func(uint32) { once.Do(func() { close(started) }) },
		func(uint32) { <-started; clk.Advance(slow) },
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, d := range displays {
		wg.Add(1)
		go func(i int, d *Display) {
			defer wg.Done()
			errs[i] = d.RunFrames(frames, waitLong, renders[i])
		}(i, d)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("display %d: %v", i+1, err)
		}
	}
	// Only the slow display moves the clock: its frames took exactly
	// frames×20 ms. The fast display's end at the same swaps, so its rate
	// is the same; one that did not wait for the slow display finished
	// sooner, at fps 0 if before the clock first moved.
	want := 1 / slow.Seconds()
	if fps := displays[1].FPS(); math.Abs(fps-want) > 1e-9 {
		t.Errorf("slow display fps %v, want %v", fps, want)
	}
	if fps := displays[0].FPS(); math.Abs(fps-want) > 1e-9 {
		t.Errorf("fast display fps %v, want the slow display's %v: not synchronized", fps, want)
	}
}

func TestDynamicJoinDisplay(t *testing.T) {
	// §2.3: "an LP (an extra display, for example) can be dynamically
	// added to the system without restarting the entire system."
	lan := transport.NewMemLAN()
	srv, displays := rig(t, lan, 2, nil)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, d := range displays {
		wg.Add(1)
		go func(d *Display) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := d.RunFrames(1, waitLong, func(uint32) {}); err != nil {
					return
				}
			}
		}(d)
	}

	// Let the original pair run some frames.
	eventually(t, "progressed before the join", func() bool { return srv.Frame() > 0 })

	// Hot-add display-3 on a new node.
	d3, err := NewDisplay(newBackbone(t, lan, "display-pc-3", nil), "display-3")
	if err != nil {
		t.Fatal(err)
	}
	if !d3.WaitServer(waitLong) {
		t.Fatal("hot-added display never linked")
	}
	// Keep the new display rendering while we wait for the server to
	// process its READY reports — admission is asynchronous by design.
	d3stop := make(chan struct{})
	var d3wg sync.WaitGroup
	d3wg.Add(1)
	go func() {
		defer d3wg.Done()
		for {
			select {
			case <-d3stop:
				return
			default:
			}
			if err := d3.RunFrames(1, waitLong, func(uint32) {}); err != nil {
				return
			}
		}
	}()
	eventually(t, "admitted display-3", func() bool { return slices.Contains(srv.Displays(), "display-3") })
	close(d3stop)
	d3wg.Wait()
	close(stop)
	wg.Wait()
	if got := d3.Frame(); got == 0 {
		t.Error("joined display rendered no frames")
	}
}

// TestStallEviction runs the rack on a manual clock: display-2 never
// shows up, and once display-1 has waited StallTimeout for it the server
// evicts it so display-1 can run.
func TestStallEviction(t *testing.T) {
	lan := transport.NewMemLAN()
	clk := clock.NewManual()
	srv, err := NewServer(newBackbone(t, lan, "sync-server", clk), "sync", ServerConfig{
		Expected:     []string{"display-1", "display-2"},
		StallTimeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	d1, err := NewDisplay(newBackbone(t, lan, "display-pc-1", clk), "display-1")
	if err != nil {
		t.Fatal(err)
	}
	if !d1.WaitServer(waitLong) {
		t.Fatal("display-1 not linked")
	}
	done := make(chan error, 1)
	go func() { done <- d1.RunFrames(5, 10*time.Second, func(uint32) {}) }()
	eventually(t, "heard display-1's first READY", func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.displays["display-1"].ready > 0
	})
	clk.Advance(5*time.Second + pollInterval)
	if err := <-done; err != nil {
		t.Fatalf("survivor display stalled: %v", err)
	}
	if srv.Evicted() != 1 {
		t.Errorf("Evicted = %d, want 1", srv.Evicted())
	}
}

// TestIdleRackIsNotStalled: a rack that idles past StallTimeout before its
// first FRAME READY — sim.New starts the server, the display loops begin
// at Start — keeps every display, and the first swap still waits for all
// of them; the stall clock of a frame starts with its first report, and
// one display that has waited a timeout is enough to evict. The server's
// loop is never started: reports go to handleReady, and a manual
// clock ages them.
func TestIdleRackIsNotStalled(t *testing.T) {
	clk := clock.NewManual()
	const timeout = 5 * time.Second
	srv, err := NewServer(newBackbone(t, transport.NewMemLAN(), "sync-server", clk), "sync", ServerConfig{
		Expected:     []string{"display-1", "display-2", "display-3"},
		StallTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	age := func() { clk.Advance(2 * timeout) }
	ready := func(name string, frame uint32) {
		srv.handleReady(cb.Reflection{PubLP: name, Attrs: fom.FrameMark{Frame: frame}.Encode()})
	}
	holds := func(when string, evicted int64, displays int, frame uint32) {
		t.Helper()
		srv.reapStalls()
		srv.release()
		if srv.Evicted() != evicted || len(srv.Displays()) != displays || srv.Frame() != frame {
			t.Fatalf("%s: %d evicted, displays %v, next frame %d; want %d evicted, %d displays, frame %d",
				when, srv.Evicted(), srv.Displays(), srv.Frame(), evicted, displays, frame)
		}
	}

	age()
	holds("idle, nobody has reported", 0, 3, 0)
	ready("display-1", 0)
	holds("display-1 has only just reported", 0, 3, 0)
	age()
	ready("display-2", 0)
	holds("display-1 has waited a timeout, display-2 has only just reported, display-3 is stalled", 1, 2, 1)
	ready("display-1", 1)
	ready("display-2", 1)
	holds("the survivors run on", 1, 2, 2)
	age()
	holds("both idle again", 1, 2, 2)
}

// TestWaitSwapTimeout: with no server, WaitSwap times out when its
// timeout has passed on the display's clock, and not before.
func TestWaitSwapTimeout(t *testing.T) {
	clk := clock.NewManual()
	d, err := NewDisplay(newBackbone(t, transport.NewMemLAN(), "display-pc", clk), "display-1")
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 10 * time.Second
	done := make(chan error, 1)
	go func() { done <- d.WaitSwap(timeout) }()
	ctx, cancel := context.WithTimeout(context.Background(), waitLong)
	defer cancel()
	if err := clk.WaitTimers(ctx, 2); err != nil { // the backbone's timer and WaitSwap's
		t.Fatal(err)
	}
	clk.Advance(timeout - time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("WaitSwap returned %v before its timeout", err)
	default:
	}
	clk.Advance(time.Millisecond)
	if err := <-done; !errors.Is(err, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout", err)
	}
}

// TestCloseEndsWaits parks each blocking call on a display no server will
// ever answer: only Close can end the wait before its minute-long timeout.
func TestCloseEndsWaits(t *testing.T) {
	waits := map[string]func(*Display) (stopped bool){
		"WaitSwap":   func(d *Display) bool { return errors.Is(d.WaitSwap(time.Minute), ErrStopped) },
		"WaitServer": func(d *Display) bool { return !d.WaitServer(time.Minute) },
	}
	for name, wait := range waits {
		t.Run(name, func(t *testing.T) {
			d, err := NewDisplay(newBackbone(t, transport.NewMemLAN(), "display-pc", nil), "display-1")
			if err != nil {
				t.Fatal(err)
			}
			done := make(chan bool, 1)
			go func() { done <- wait(d) }()
			if err := d.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			select {
			case stopped := <-done:
				if !stopped {
					t.Errorf("%s did not report the display stopped", name)
				}
			case <-time.After(waitLong):
				t.Fatalf("%s still waiting after Close", name)
			}
		})
	}
}

func TestDisplayClose(t *testing.T) {
	d, err := NewDisplay(newBackbone(t, transport.NewMemLAN(), "display-pc", nil), "display-1")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := d.Ready(0); !errors.Is(err, cb.ErrHandleClosed) {
		t.Errorf("Ready after close = %v", err)
	}
}
