package displaysync

import (
	"context"
	"testing"
	"time"

	"codsim/internal/cb"
	"codsim/internal/fom"
	"codsim/internal/transport"
)

// The render-ahead tests are choreographed over channels: nothing sleeps,
// and a wait that never ends fails at waitLong as a hang.

// recv takes the next value from ch, or fails the test as a hang.
func recv[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(waitLong):
		t.Fatalf("hang: still waiting for %s", what)
		panic("unreachable")
	}
}

// TestRenderAheadBeforeSwap holds the server with a display that has not
// reported: the other display draws frame 1 while SWAP 0 is unreleased,
// and frame 2 only once it has consumed SWAP 0.
func TestRenderAheadBeforeSwap(t *testing.T) {
	srv, displays := rig(t, transport.NewMemLAN(), 2)
	held, ahead := displays[0], displays[1]
	rendered := make(chan uint32)
	done := make(chan error, 2)
	go func() {
		done <- ahead.RunFrames(3, waitLong, func(frame uint32) {
			switch {
			case frame == 1 && srv.Frame() != 0:
				t.Errorf("SWAP 0 released before the held display reported")
			case frame == 2 && ahead.Frame() < 1:
				t.Errorf("frame 2 drawn before SWAP 0 was consumed")
			}
			rendered <- frame
		})
	}()
	for want := uint32(0); want < 2; want++ {
		if got := recv(t, rendered, "a frame drawn without the held display"); got != want {
			t.Fatalf("drew frame %d, want %d", got, want)
		}
	}
	if srv.Frame() != 0 || ahead.Frame() != 0 {
		t.Fatalf("server at frame %d, display swapped %d: nothing may be released yet", srv.Frame(), ahead.Frame())
	}
	go func() { done <- held.RunFrames(3, waitLong, func(uint32) {}) }()
	if got := recv(t, rendered, "frame 2"); got != 2 {
		t.Fatalf("drew frame %d, want 2", got)
	}
	for range 2 {
		if err := recv(t, done, "RunFrames to return"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRenderAheadReadyAfterSwap plays the server itself: every READY f+1
// reaches it from a display that has consumed SWAP f, and between the two
// the display has drawn exactly frame f+1.
func TestRenderAheadReadyAfterSwap(t *testing.T) {
	lan := transport.NewMemLAN()
	serverBB, err := cb.New(lan, "sync-server", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer serverBB.Close()
	swapPub, err := serverBB.PublishObjectClass("sync", fom.ClassFrameSwap)
	if err != nil {
		t.Fatal(err)
	}
	readySub, err := serverBB.SubscribeObjectClass("sync", fom.ClassFrameReady, cb.WithQueue(64))
	if err != nil {
		t.Fatal(err)
	}
	bb, err := cb.New(lan, "display-pc-1", fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer bb.Close()
	d, err := NewDisplay(bb, "display-1")
	if err != nil {
		t.Fatal(err)
	}
	if !d.WaitServer(waitLong) {
		t.Fatal("display never linked")
	}

	const frames = 5
	rendered := make(chan uint32, frames) // one send per frame drawn
	done := make(chan error, 1)
	go func() { done <- d.RunFrames(frames, waitLong, func(f uint32) { rendered <- f }) }()
	ctx, cancel := context.WithTimeout(context.Background(), waitLong)
	defer cancel()
	if got := recv(t, rendered, "frame 0"); got != 0 {
		t.Fatalf("drew frame %d first", got)
	}
	for f := uint32(0); f < frames; f++ {
		r, err := readySub.NextContext(ctx)
		if err != nil {
			t.Fatalf("READY %d: %v", f, err)
		}
		mark, err := fom.DecodeFrameMark(r.Attrs)
		r.Release()
		if err != nil || mark.Frame != f {
			t.Fatalf("got READY %d (%v), want %d", mark.Frame, err, f)
		}
		if got := d.Frame(); got != f {
			t.Fatalf("READY %d arrived from a display that has consumed %d swaps", f, got)
		}
		if f+1 < frames {
			if got := recv(t, rendered, "the frame drawn ahead"); got != f+1 {
				t.Fatalf("after READY %d drew frame %d, want %d", f, got, f+1)
			}
		}
		if err := swapPub.Update(float64(f), fom.FrameMark{Frame: f}.Encode()); err != nil {
			t.Fatal(err)
		}
	}
	if err := recv(t, done, "RunFrames to return"); err != nil {
		t.Fatal(err)
	}
	if len(rendered) != 0 || d.Frame() != frames {
		t.Errorf("%d frames drawn beyond %d, %d swaps consumed", len(rendered), frames, d.Frame())
	}
}

// TestRenderAheadSkew gives two displays alternating slow frames — a slow
// frame lasts until the other display has begun its next one — and holds
// them to one swap apart throughout.
func TestRenderAheadSkew(t *testing.T) {
	srv, displays := rig(t, transport.NewMemLAN(), 2)
	const frames = 40
	var begun [2][frames]chan struct{}
	for i := range begun {
		for f := range begun[i] {
			begun[i][f] = make(chan struct{})
		}
	}
	done := make(chan error, 2)
	for i, d := range displays {
		peer := displays[1-i]
		go func() {
			done <- d.RunFrames(frames, waitLong, func(f uint32) {
				close(begun[i][f])
				// d's own count cannot move during its own render.
				if own, other := d.Frame(), peer.Frame(); own > other+1 || other > own+1 {
					t.Errorf("display %d at swap %d, its peer at %d", i+1, own, other)
				}
				if (int(f)+i)%2 == 0 && int(f)+1 < frames {
					select {
					case <-begun[1-i][f+1]:
					case <-time.After(waitLong):
						t.Errorf("hang: display %d waited on its peer's frame %d", i+1, f+1)
					}
				}
			})
		}()
	}
	for range displays {
		if err := recv(t, done, "RunFrames to return"); err != nil {
			t.Fatal(err)
		}
	}
	for i, d := range displays {
		if d.Frame() != frames {
			t.Errorf("display %d consumed %d swaps, want %d", i+1, d.Frame(), frames)
		}
	}
	if srv.Frame() != frames {
		t.Errorf("server released %d frames, want %d", srv.Frame(), frames)
	}
}

// TestRenderAheadNotInRunFramesOne: RunFrames(1) draws one frame, and only
// once every earlier swap is consumed.
func TestRenderAheadNotInRunFramesOne(t *testing.T) {
	_, displays := rig(t, transport.NewMemLAN(), 1)
	d := displays[0]
	for call := uint32(0); call < 5; call++ {
		var drawn []uint32
		err := d.RunFrames(1, waitLong, func(f uint32) {
			drawn = append(drawn, f)
			if d.Frame() != f {
				t.Errorf("drew frame %d with %d swaps consumed", f, d.Frame())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(drawn) != 1 || drawn[0] != call {
			t.Fatalf("call %d drew %v, want [%d]", call, drawn, call)
		}
	}
}
