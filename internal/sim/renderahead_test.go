package sim

import (
	"testing"
	"time"
)

// The render-ahead tests watch the display loops through onFrame and wait
// on events, never on a sleep; a wait that never ends fails at hangAfter.
const hangAfter = 20 * time.Second

func renderAheadCluster(t *testing.T, frames int) *Cluster {
	t.Helper()
	c, err := New(Config{
		TimeScale:    8,
		Width:        96,
		Height:       72,
		Polygons:     400,
		RenderFrames: frames,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range c.displays {
		if d.planes[1] != nil {
			t.Fatalf("display %d has its second plane before its first frame", i+1)
		}
	}
	return c
}

// TestRenderAheadPlanes: RenderFrames n draws n frames and consumes n
// swaps on every display, and the plane holding frame f becomes the render
// target again only once SWAP f is consumed.
func TestRenderAheadPlanes(t *testing.T) {
	const frames = 8
	c := renderAheadCluster(t, frames)
	defer c.Stop()
	var drawn [3]int // by display; each written by its own loop only
	c.onFrame = func(d *displayNode, frame uint32) {
		drawn[d.camIdx]++
		target := d.rend.Framebuffer()
		if target != d.planes[frame%2] || target == d.planes[(frame+1)%2] {
			t.Errorf("display %d frame %d: the render target is not the plane of its parity", d.camIdx+1, frame)
		}
		// The target last held frame-2: SWAP frame-2 must be consumed.
		if swapped := d.client.Frame(); frame >= 2 && swapped < frame-1 {
			t.Errorf("display %d drew frame %d over frame %d with %d swaps consumed", d.camIdx+1, frame, frame-2, swapped)
		}
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	loops := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(loops)
	}()
	select {
	case <-loops:
	case <-time.After(hangAfter):
		t.Fatalf("hang: display loops still running (cluster err %v)", c.Err())
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for i, d := range c.displays {
		if drawn[i] != frames || d.client.Frame() != frames {
			t.Errorf("display %d drew %d frames and consumed %d swaps, want %d of each", i+1, drawn[i], d.client.Frame(), frames)
		}
		if d.planes[1] == nil {
			t.Errorf("display %d never allocated its second plane", i+1)
		}
	}
	if got := c.server.Frame(); got != frames {
		t.Errorf("server released %d frames, want %d", got, frames)
	}
}

// TestRenderAheadStop stops the cluster while display 1 draws frame 1, the
// frame drawn before SWAP 0 is consumed: Stop returns without waiting out
// the 10 s barrier timeout, and the display's ErrStopped is no error.
func TestRenderAheadStop(t *testing.T) {
	c := renderAheadCluster(t, 0)
	entered := make(chan struct{})
	c.onFrame = func(d *displayNode, frame uint32) {
		if d.camIdx == 0 && frame == 1 {
			close(entered)
			<-c.stopCh
		}
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(hangAfter):
		c.Stop()
		t.Fatalf("hang: display 1 never drew frame 1 (cluster err %v)", c.Err())
	}
	stopped := make(chan struct{})
	go func() {
		c.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop still waiting 5 s into a render-ahead frame")
	}
	if err := c.Err(); err != nil {
		t.Errorf("cluster error after Stop: %v", err)
	}
}
