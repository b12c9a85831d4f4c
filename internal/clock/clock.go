// Package clock is the one notion of time that cb, dist, displaysync and
// sim read. Wall, the default, is package time; a test hands its backbones
// a Manual (cb.Config.Clock, cod.WithClock) and moves time with Advance. A
// periodic loop re-arms one Timer with Reset as it takes each tick, so a
// tick it has acted on leaves its timer armed again.
package clock

import (
	"context"
	"sync"
	"time"
)

// Clock reads the time and builds timers on it.
type Clock interface {
	Now() time.Time
	NewTimer(d time.Duration) Timer
}

// Timer is a time.Timer on some Clock; Stop and Reset answer as time's do.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Wall is package time.
var Wall Clock = wall{}

type wall struct{}
type wallTimer struct{ *time.Timer }

func (wall) Now() time.Time                 { return time.Now() }
func (wall) NewTimer(d time.Duration) Timer { return wallTimer{time.NewTimer(d)} }
func (t wallTimer) C() <-chan time.Time     { return t.Timer.C }

// Manual is a Clock that moves only when Advance moves it. It starts at a
// fixed instant, not the zero time, which callers take to mean never.
type Manual struct {
	mu    sync.Mutex
	now   time.Time
	armed map[*timer]bool
	edge  chan struct{} // closed and replaced whenever a timer is armed
}

// NewManual returns a Manual clock.
func NewManual() *Manual {
	return &Manual{now: time.Date(2001, 4, 16, 0, 0, 0, 0, time.UTC), armed: map[*timer]bool{}, edge: make(chan struct{})}
}

func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

func (m *Manual) NewTimer(d time.Duration) Timer {
	t := &timer{m: m, c: make(chan time.Time, 1)}
	t.Reset(d)
	return t
}

// Advance moves the clock forward by d and fires, in deadline order, every
// timer that falls due on the way. A loop that reads Now on its tick reads
// the end of the move: Advance holds the clock until it is done.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	end := m.now.Add(d)
	for {
		var next *timer
		for t := range m.armed {
			if !t.when.After(end) && (next == nil || t.when.Before(next.when)) {
				next = t
			}
		}
		if next == nil {
			m.now = end
			return
		}
		m.now = next.when
		delete(m.armed, next)
		next.c <- m.now // empty: arming drained it
	}
}

// WaitTimers blocks until at least n timers are armed, or ctx ends, so that
// a test advances only once the loops it moves have armed theirs.
func (m *Manual) WaitTimers(ctx context.Context, n int) error {
	for {
		m.mu.Lock()
		armed, edge := len(m.armed), m.edge
		m.mu.Unlock()
		if armed >= n {
			return nil
		}
		select {
		case <-edge:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// timer is a Timer of a Manual clock.
type timer struct {
	m    *Manual
	c    chan time.Time
	when time.Time
}

func (t *timer) C() <-chan time.Time { return t.c }

// Stop disarms t and takes back a tick that nobody received, as a
// time.Timer does since Go 1.23, counting t as active if it did.
func (t *timer) Stop() bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	return t.stop()
}

func (t *timer) Reset(d time.Duration) bool {
	t.m.mu.Lock()
	defer t.m.mu.Unlock()
	active := t.stop()
	t.when, t.m.armed[t] = t.m.now.Add(d), true
	close(t.m.edge)
	t.m.edge = make(chan struct{})
	return active
}

func (t *timer) stop() bool {
	active := t.m.armed[t]
	delete(t.m.armed, t)
	select {
	case <-t.c:
		return true
	default:
		return active
	}
}
