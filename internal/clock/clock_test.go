package clock

import (
	"context"
	"testing"
	"time"
)

// tick takes the tick waiting on c, if any, without blocking; it returns
// how long after start the tick was sent, or -1 for none.
func tick(c <-chan time.Time, start time.Time) time.Duration {
	select {
	case at := <-c:
		return at.Sub(start)
	default:
		return -1
	}
}

// TestManualFiresInDeadlineOrder: one Advance across several deadlines
// fires each timer at its own deadline, the clock reading that deadline as
// it fires, and none before it.
func TestManualFiresInDeadlineOrder(t *testing.T) {
	m := NewManual()
	start := m.Now()
	due := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 30 * time.Millisecond}
	var timers []Timer
	for _, d := range due {
		timers = append(timers, m.NewTimer(d))
	}
	m.Advance(5 * time.Millisecond)
	for i, tm := range timers {
		if at := tick(tm.C(), start); at != -1 {
			t.Fatalf("timer %d fired at +%v, before its deadline", i, at)
		}
	}
	m.Advance(time.Hour)
	if got := m.Now().Sub(start); got != time.Hour+5*time.Millisecond {
		t.Fatalf("Now after Advance = +%v", got)
	}
	for i, tm := range timers {
		if at := tick(tm.C(), start); at != due[i] {
			t.Errorf("timer %d fired at +%v, want +%v", i, at, due[i])
		}
	}
}

// TestManualRearmedTimerDropsMissedTicks: a loop that re-arms its timer as
// it takes each tick, as the periodic loops on a Clock do, sees one tick for
// an Advance across several periods, as from a time.Ticker whose reader is
// slow, and the next a period after it re-armed.
func TestManualRearmedTimerDropsMissedTicks(t *testing.T) {
	m := NewManual()
	start := m.Now()
	tm := m.NewTimer(10 * time.Millisecond)
	m.Advance(55 * time.Millisecond)
	if at := tick(tm.C(), start); at != 10*time.Millisecond {
		t.Fatalf("first tick at +%v, want the one at +10ms", at)
	}
	if at := tick(tm.C(), start); at != -1 {
		t.Fatalf("a second tick (+%v) was pending: missed ticks must be dropped", at)
	}
	tm.Reset(10 * time.Millisecond)
	if m.Advance(9 * time.Millisecond); tick(tm.C(), start) != -1 {
		t.Fatal("ticked before a period had passed since the re-arm")
	}
	if m.Advance(time.Millisecond); tick(tm.C(), start) != 65*time.Millisecond {
		t.Fatal("no tick a period after the re-arm")
	}
}

// TestManualStopResetMatchTime pins Stop's and Reset's answers to a
// time.Timer's since Go 1.23: active if armed, or fired with its tick not
// yet received, in which case the call takes the tick back.
func TestManualStopResetMatchTime(t *testing.T) {
	m := NewManual()
	tm := m.NewTimer(time.Second)
	states := map[string]func(){
		"stopped":  func() {},
		"armed":    func() { tm.Reset(time.Second) },
		"fired":    func() { tm.Reset(time.Second); m.Advance(time.Second) },
		"received": func() { tm.Reset(time.Second); m.Advance(time.Second); <-tm.C() },
	}
	ops := map[string]func() bool{"Stop": tm.Stop, "Reset": func() bool { return tm.Reset(time.Second) }}
	for state, enter := range states {
		for name, op := range ops {
			tm.Stop()
			enter()
			if got, want := op(), state == "armed" || state == "fired"; got != want {
				t.Errorf("%s of a %s timer = %v, want %v", name, state, got, want)
			}
			if tm.Stop(); tick(tm.C(), m.Now()) != -1 {
				t.Errorf("a stale tick survived %s of a %s timer", name, state)
			}
		}
	}
}

func TestManualWaitTimers(t *testing.T) {
	m := NewManual()
	armed := make(chan Timer)
	go func() { armed <- m.NewTimer(time.Second) }()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.WaitTimers(ctx, 1); err != nil {
		t.Fatalf("WaitTimers(1): %v", err)
	}
	(<-armed).Stop()
	cancel()
	if m.WaitTimers(ctx, 1) == nil {
		t.Fatal("WaitTimers counted a stopped timer")
	}
}
