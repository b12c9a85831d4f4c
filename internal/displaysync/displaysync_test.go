package displaysync

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"codsim/internal/cb"
	"codsim/internal/fom"
	"codsim/internal/transport"
)

func fastCfg() cb.Config {
	return cb.Config{
		BroadcastInterval: 5 * time.Millisecond,
		RefreshInterval:   30 * time.Millisecond,
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  80 * time.Millisecond,
	}
}

const waitLong = 5 * time.Second

// rig builds a sync server on its own node plus n display nodes, mirroring
// the paper's rack: display computers 1..n and the synchronization server.
func rig(t *testing.T, lan transport.LAN, n int) (*Server, []*Display) {
	t.Helper()
	serverBB, err := cb.New(lan, "sync-server", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = serverBB.Close() })

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
		bb, err := cb.New(lan, fmt.Sprintf("display-pc-%d", i+1), fastCfg())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = bb.Close() })
		d, err := NewDisplay(bb, expected[i])
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

func TestBarrierLockstep(t *testing.T) {
	lan := transport.NewMemLAN()
	srv, displays := rig(t, lan, 3)

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
				time.Sleep(time.Millisecond) // simulated render cost
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
	if srv.Swaps() < frames {
		t.Errorf("server swaps = %d, want >= %d", srv.Swaps(), frames)
	}
}

func TestBarrierWaitsForSlowest(t *testing.T) {
	lan := transport.NewMemLAN()
	_, displays := rig(t, lan, 2)

	const frames = 10
	slow := 20 * time.Millisecond
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	for i, d := range displays {
		wg.Add(1)
		go func(i int, d *Display) {
			defer wg.Done()
			cost := time.Duration(0)
			if i == 1 {
				cost = slow // one display is 20 ms slower per frame
			}
			errs[i] = d.RunFrames(frames, waitLong, func(uint32) { time.Sleep(cost) })
		}(i, d)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("display %d: %v", i+1, err)
		}
	}
	// Total time is governed by the slow display.
	if elapsed < time.Duration(frames)*slow {
		t.Errorf("elapsed %v < %v: barrier did not wait for slowest", elapsed, time.Duration(frames)*slow)
	}
	// The fast display's achieved fps equals the slow one's (sync overhead).
	fastFPS := displays[0].FPS()
	slowFPS := displays[1].FPS()
	if fastFPS > slowFPS*1.25 {
		t.Errorf("fast display fps %v >> slow %v: not synchronized", fastFPS, slowFPS)
	}
}

func TestDynamicJoinDisplay(t *testing.T) {
	// §2.3: "an LP (an extra display, for example) can be dynamically
	// added to the system without restarting the entire system."
	lan := transport.NewMemLAN()
	srv, displays := rig(t, lan, 2)

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
	time.Sleep(100 * time.Millisecond)
	if srv.Frame() == 0 {
		t.Fatal("no progress before join")
	}

	// Hot-add display-3 on a new node.
	bb, err := cb.New(lan, "display-pc-3", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer bb.Close()
	d3, err := NewDisplay(bb, "display-3")
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
	admitted := false
	deadline := time.Now().Add(waitLong)
	for time.Now().Before(deadline) {
		for _, name := range srv.Displays() {
			if name == "display-3" {
				admitted = true
			}
		}
		if admitted {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(d3stop)
	d3wg.Wait()
	close(stop)
	wg.Wait()
	if !admitted {
		t.Errorf("server displays = %v, missing display-3", srv.Displays())
	}
	if got := d3.Frame(); got == 0 {
		t.Error("joined display rendered no frames")
	}
}

func TestStallEviction(t *testing.T) {
	lan := transport.NewMemLAN()
	serverBB, err := cb.New(lan, "sync-server", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer serverBB.Close()
	srv, err := NewServer(serverBB, "sync", ServerConfig{
		Expected:     []string{"display-1", "display-2"},
		StallTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	defer srv.Stop()

	bb, err := cb.New(lan, "display-pc-1", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer bb.Close()
	d1, err := NewDisplay(bb, "display-1")
	if err != nil {
		t.Fatal(err)
	}
	if !d1.WaitServer(waitLong) {
		t.Fatal("display-1 not linked")
	}
	// display-2 never shows up: after StallTimeout it must be evicted so
	// display-1 can run.
	if err := d1.RunFrames(5, waitLong, func(uint32) {}); err != nil {
		t.Fatalf("survivor display stalled: %v", err)
	}
	if srv.Evicted() != 1 {
		t.Errorf("Evicted = %d, want 1", srv.Evicted())
	}
}

// TestIdleRackIsNotStalled: a rack that idles past StallTimeout before its
// first FRAME READY — sim.New starts the server, the display loops begin
// at Start — keeps every display, and the first swap still waits for all
// of them; the stall clock of a frame starts with its first report. The
// server's loop is never started: reports go to handleReady, their times
// are moved back by hand, and nothing sleeps.
func TestIdleRackIsNotStalled(t *testing.T) {
	bb, err := cb.New(transport.NewMemLAN(), "sync-server", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer bb.Close()
	const timeout = 50 * time.Millisecond
	srv, err := NewServer(bb, "sync", ServerConfig{
		Expected:     []string{"display-1", "display-2", "display-3"},
		StallTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	age := func(names ...string) {
		for _, n := range names {
			srv.displays[n].lastReport = time.Now().Add(-4 * timeout)
		}
	}
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

	age("display-1", "display-2", "display-3")
	holds("idle, nobody has reported", 0, 3, 0)
	ready("display-1", 0)
	holds("display-1 has only just reported", 0, 3, 0)
	ready("display-2", 0)
	age("display-2")
	holds("display-2 has waited a timeout, display-3 is stalled", 1, 2, 1)
	ready("display-1", 1)
	ready("display-2", 1)
	holds("the survivors run on", 1, 2, 2)
	age("display-1", "display-2")
	holds("both idle again", 1, 2, 2)
}

func TestWaitSwapTimeout(t *testing.T) {
	lan := transport.NewMemLAN()
	bb, err := cb.New(lan, "display-pc", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer bb.Close()
	d, err := NewDisplay(bb, "display-1")
	if err != nil {
		t.Fatal(err)
	}
	// No server exists: WaitSwap must time out, not hang.
	if err := d.WaitSwap(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
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
			bb, err := cb.New(transport.NewMemLAN(), "display-pc", fastCfg())
			if err != nil {
				t.Fatal(err)
			}
			defer bb.Close()
			d, err := NewDisplay(bb, "display-1")
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
	lan := transport.NewMemLAN()
	bb, err := cb.New(lan, "display-pc", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer bb.Close()
	d, err := NewDisplay(bb, "display-1")
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
