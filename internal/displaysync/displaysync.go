// Package displaysync implements the surround-view frame synchronization of
// §4: the three display computers render one frame each, report FRAME READY
// to the synchronization server (the fourth computer of the rack), and only
// present ("swap") when the server answers FRAME SWAP — so the three
// monitors always show the same simulation frame (Fig. 10, ref [11]).
//
// The barrier is the source of the paper's measured overhead: the surround
// view runs at 16 fps with 3235 polygons, below the free-running rate of a
// single display, because every frame costs an extra READY/SWAP round trip
// and a wait for the slowest display. BenchmarkSurroundView reproduces
// exactly this gap.
//
// The protocol rides the ordinary CB virtual channels: displays publish
// ClassFrameReady and subscribe ClassFrameSwap; the server does the
// opposite. A display added at runtime (dynamic join, §2.3) is admitted
// automatically and its frame counter is rebased onto the server's.
//
// # Render-ahead
//
// The server keeps the paper's strict swap-lock: it releases SWAP f when
// every admitted display has reported READY f, so all monitors swap the
// same frame at the same release. What the paper left as §5 future work —
// "further accelerating of the frame rate" — is taken on the display side:
// Display.RunFrames renders one frame ahead. After READY f it calls
// render(f+1), then waits for SWAP f, then reports READY f+1; it never
// renders f+2 before SWAP f, and it reports nothing before it has consumed
// the previous swap. A display therefore draws while it would otherwise
// idle at the barrier — three equal renders on two cores no longer leave
// one core waiting for the third display — and it needs two colour planes:
// the plane holding frame f must not be written between READY f and
// SWAP f, so frame f+1 goes to the other one (internal/sim alternates them
// by frame parity). RunFrames(1) renders no frame ahead.
//
// The trade is latency: state drained for frame f+1 is still shown at
// SWAP f+1, but it is drained before SWAP f instead of after, so its age
// at the swap grows by at most one barrier wait — about a millisecond at
// fed_exam's frame rates, against a 60 Hz state stream.
package displaysync

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"codsim/internal/cb"
	"codsim/internal/clock"
	"codsim/internal/fom"
	"codsim/internal/metrics"
	"codsim/internal/wire"
)

// Errors returned by the package.
var (
	ErrTimeout = errors.New("displaysync: timed out waiting for swap")
	ErrStopped = errors.New("displaysync: stopped")
)

// ServerConfig tunes the synchronization server.
type ServerConfig struct {
	// Expected lists display LP names that must report before the first
	// swap is released. Displays beyond this list are auto-admitted when
	// their first FRAME READY arrives (dynamic join).
	Expected []string
	// StallTimeout evicts a display that stops reporting while others
	// wait, so one dead node cannot freeze the surround view. Zero
	// disables eviction.
	StallTimeout time.Duration
}

// pollInterval is the period of the server's stall check.
const pollInterval = 10 * time.Millisecond

// Server is the synchronization-server LP.
type Server struct {
	cfg   ServerConfig
	pub   *cb.Publication
	sub   *cb.Subscription
	clock clock.Clock

	mu       sync.Mutex
	frame    uint32                // next frame to release
	displays map[string]*dispState // display LP → progress
	evicted  metrics.Counter
	swaps    metrics.Counter
	swap     wire.AttrSet // the SWAP mark, encoded by release alone

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

type dispState struct {
	baseline   uint32    // server frame at admission minus its first frame
	ready      uint32    // latest effective ready frame + 1 (0 = none yet)
	lastReport time.Time // zero until its first FRAME READY
}

// NewServer registers the synchronization server on the given backbone
// under LP name lpName.
func NewServer(backbone *cb.Backbone, lpName string, cfg ServerConfig) (*Server, error) {
	pub, err := backbone.PublishObjectClass(lpName, fom.ClassFrameSwap)
	if err != nil {
		return nil, fmt.Errorf("displaysync: publish swap: %w", err)
	}
	// Drop-oldest is the deliberate legacy contract of the swap-lock: the
	// queue is far deeper than displays-in-flight per frame, so a drop is
	// unreachable in practice, and a stalled display is evicted by
	// StallTimeout rather than backpressured.
	sub, err := backbone.SubscribeObjectClass(lpName, fom.ClassFrameReady, cb.WithQueue(1024), cb.WithDropOldest())
	if err != nil {
		_ = pub.Close()
		return nil, fmt.Errorf("displaysync: subscribe ready: %w", err)
	}
	s := &Server{
		cfg:      cfg,
		pub:      pub,
		sub:      sub,
		clock:    backbone.Clock(),
		displays: make(map[string]*dispState, len(cfg.Expected)),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	for _, name := range cfg.Expected {
		s.displays[name] = &dispState{}
	}
	return s, nil
}

// Start launches the server loop goroutine.
func (s *Server) Start() {
	go func() {
		defer close(s.done)
		s.serve()
	}()
}

// Stop terminates the server loop and waits for it.
func (s *Server) Stop() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
}

// Frame returns the next frame index the server will release.
func (s *Server) Frame() uint32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.frame
}

// Displays returns the names of currently admitted displays.
func (s *Server) Displays() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.displays))
	for n := range s.displays {
		names = append(names, n)
	}
	return names
}

// Evicted returns how many displays were evicted for stalling.
func (s *Server) Evicted() int64 { return s.evicted.Value() }

// Swaps returns how many FRAME SWAP releases the server has published.
func (s *Server) Swaps() int64 { return s.swaps.Value() }

func (s *Server) serve() {
	reap := s.clock.NewTimer(pollInterval)
	defer reap.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-s.sub.NotifyC():
			for {
				r, ok := s.sub.Poll()
				if !ok {
					break
				}
				s.handleReady(r)
			}
		case <-reap.C():
			reap.Reset(pollInterval)
			s.reapStalls()
		}
		s.release()
	}
}

// handleReady records one FRAME READY report.
func (s *Server) handleReady(r cb.Reflection) {
	mark, err := fom.DecodeFrameMark(r.Attrs)
	r.Release() // the mark is plain numbers; nothing of r.Attrs is kept
	if err != nil {
		return // malformed; ignore
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d, known := s.displays[r.PubLP]
	if !known {
		// Dynamic join: admit and rebase its counter onto ours.
		d = &dispState{baseline: s.frame - mark.Frame}
		s.displays[r.PubLP] = d
	}
	eff := mark.Frame + d.baseline
	if eff+1 > d.ready {
		d.ready = eff + 1
	}
	d.lastReport = s.clock.Now()
}

// reapStalls evicts displays that stopped reporting while others wait. A
// frame's stall clock starts when the first display reports it: a rack in
// which nobody has reported yet is idle, however long, not stalled.
func (s *Server) reapStalls() {
	if s.cfg.StallTimeout <= 0 {
		return
	}
	now := s.clock.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.displays) < 2 {
		return // nothing to unblock
	}
	stalled := func(d *dispState) bool { return now.Sub(d.lastReport) > s.cfg.StallTimeout }
	waiting := false // some display has been ahead of s.frame for a whole timeout
	for _, d := range s.displays {
		waiting = waiting || d.ready > s.frame && stalled(d)
	}
	if !waiting {
		return
	}
	for name, d := range s.displays {
		if d.ready <= s.frame && stalled(d) {
			delete(s.displays, name)
			s.evicted.Inc()
		}
	}
}

// release publishes FRAME SWAP while every admitted display has reported
// the current frame: the strict swap-lock.
func (s *Server) release() {
	for {
		s.mu.Lock()
		if len(s.displays) == 0 {
			s.mu.Unlock()
			return
		}
		allReady := true
		for _, d := range s.displays {
			if d.ready <= s.frame {
				allReady = false
				break
			}
		}
		if !allReady {
			s.mu.Unlock()
			return
		}
		frame := s.frame
		s.frame++
		s.mu.Unlock()

		fom.FrameMark{Frame: frame}.EncodeInto(&s.swap)
		if err := s.pub.Update(float64(frame), s.swap); err != nil {
			return
		}
		s.swaps.Inc()
	}
}

// Display is the barrier client run by each display computer.
type Display struct {
	name  string
	pub   *cb.Publication
	sub   *cb.Subscription
	clock clock.Clock
	// ctx ends at Close, so no wait outlives the display.
	ctx    context.Context
	cancel context.CancelFunc

	mu       sync.Mutex
	frame    uint32 // local frame counter
	lastSwap uint32 // newest swap index seen + 1 (0 = none)
	tracker  metrics.FrameTracker

	rmu   sync.Mutex   // one Ready at a time
	ready wire.AttrSet // the READY mark, guarded by rmu
}

// NewDisplay registers a display client on the given backbone.
func NewDisplay(backbone *cb.Backbone, lpName string) (*Display, error) {
	// Subscribe first: answering it gives the server's CB a link to this
	// computer, over which its FRAME READY subscription — matched already
	// when this is not the first display — answers the publication's
	// solicit at once instead of at its refresh interval.
	// Same legacy drop-oldest contract as the server side: see NewServer.
	sub, err := backbone.SubscribeObjectClass(lpName, fom.ClassFrameSwap, cb.WithQueue(256), cb.WithDropOldest())
	if err != nil {
		return nil, fmt.Errorf("displaysync: subscribe swap: %w", err)
	}
	pub, err := backbone.PublishObjectClass(lpName, fom.ClassFrameReady)
	if err != nil {
		_ = sub.Close()
		return nil, fmt.Errorf("displaysync: publish ready: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Display{name: lpName, pub: pub, sub: sub, clock: backbone.Clock(), ctx: ctx, cancel: cancel}, nil
}

// WaitServer blocks until both barrier channels — the swap subscription
// and the ready publication — are established; it reports false when the
// timeout elapses or the display is closed first. Skipping this wait
// risks publishing the first FRAME READY into the void before the
// server's subscription channel exists.
func (d *Display) WaitServer(timeout time.Duration) bool {
	ctx, cancel := context.WithCancel(d.ctx)
	defer cancel()
	timer := d.clock.NewTimer(timeout)
	defer timer.Stop()
	go func() {
		select {
		case <-timer.C():
			cancel()
		case <-ctx.Done():
		}
	}()
	if d.sub.WaitMatchedContext(ctx) != nil || d.pub.WaitChannelsContext(ctx, 1) != nil {
		return false
	}
	// Discard swaps that accumulated while we were joining: a late
	// display must synchronize to the *live* frame edge, not race through
	// a stale backlog.
	for {
		r, ok := d.sub.Poll()
		if !ok {
			return true
		}
		r.Release()
	}
}

// Frame returns the display's local frame counter.
func (d *Display) Frame() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.frame
}

// FPS returns the achieved frame rate so far.
func (d *Display) FPS() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tracker.FPS()
}

// Ready reports the local frame as rendered (renderTime in seconds).
func (d *Display) Ready(renderTime float64) error {
	d.mu.Lock()
	frame := d.frame
	d.mu.Unlock()
	d.rmu.Lock()
	defer d.rmu.Unlock()
	fom.FrameMark{Frame: frame, RenderTime: renderTime}.EncodeInto(&d.ready)
	return d.pub.Update(float64(frame), d.ready)
}

// WaitSwap blocks until a swap newer than the last seen arrives, then
// advances the local frame counter. It returns ErrTimeout when the server
// stays silent for the whole timeout and ErrStopped once the display is
// closed.
func (d *Display) WaitSwap(timeout time.Duration) error {
	timer := d.clock.NewTimer(timeout)
	defer timer.Stop()
	return d.waitSwap(timer)
}

// polled is a context that is already done: NextContext under it takes a
// buffered reflection without waiting and, unlike Poll, reports a
// subscription whose backbone was closed.
var polled = func() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}()

// waitSwap is WaitSwap against a timer the caller has armed, so that
// RunFrames re-arms one timer a frame instead of building a deadline.
func (d *Display) waitSwap(timer clock.Timer) error {
	for {
		if d.ctx.Err() != nil {
			return ErrStopped
		}
		r, err := d.sub.NextContext(polled)
		if errors.Is(err, cb.ErrHandleClosed) {
			return ErrStopped
		}
		if err != nil { // nothing buffered
			select {
			case <-d.sub.NotifyC():
			case <-d.ctx.Done():
			case <-timer.C():
				return fmt.Errorf("%w: frame %d", ErrTimeout, d.Frame())
			}
			continue
		}
		mark, err := fom.DecodeFrameMark(r.Attrs)
		r.Release()
		if err != nil {
			continue
		}
		d.mu.Lock()
		newer := mark.Frame+1 > d.lastSwap
		if newer {
			d.lastSwap = mark.Frame + 1
			d.frame++
		}
		d.mu.Unlock()
		if newer {
			return nil
		}
	}
}

// RunFrames drives n frames through the barrier, rendering one frame ahead
// (package doc, "Render-ahead"): render f, READY f, render f+1, SWAP f,
// READY f+1, and so on. It renders exactly n frames and waits for n swaps;
// timeout bounds each barrier wait. A frame is timed from the previous
// swap — from the call, for the first — to its own.
func (d *Display) RunFrames(n int, timeout time.Duration, render func(frame uint32)) error {
	if n <= 0 {
		return nil
	}
	timer := d.clock.NewTimer(timeout)
	defer timer.Stop()
	frame := d.Frame()
	last := d.clock.Now()
	took := d.timed(render, frame)
	for i := 1; ; i++ {
		if err := d.Ready(took.Seconds()); err != nil {
			if d.ctx.Err() != nil {
				return ErrStopped
			}
			return fmt.Errorf("displaysync: ready: %w", err)
		}
		if i < n {
			took = d.timed(render, frame+1)
		}
		timer.Reset(timeout)
		if err := d.waitSwap(timer); err != nil {
			return err
		}
		now := d.clock.Now()
		d.mu.Lock()
		d.tracker.TickInterval(now.Sub(last))
		d.mu.Unlock()
		if i == n {
			return nil
		}
		frame++
		last = now
	}
}

// timed renders frame and returns how long it took.
func (d *Display) timed(render func(frame uint32), frame uint32) time.Duration {
	start := d.clock.Now()
	render(frame)
	return d.clock.Now().Sub(start)
}

// Close withdraws the display's registrations and ends its blocked waits.
func (d *Display) Close() error {
	d.cancel()
	err1 := d.pub.Close()
	err2 := d.sub.Close()
	return errors.Join(err1, err2)
}
