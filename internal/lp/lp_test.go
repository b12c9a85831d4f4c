package lp

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"
)

func TestRunnerValidation(t *testing.T) {
	if _, err := NewRunner("x", 0, func(_, _ float64) error { return nil }); err == nil {
		t.Error("hz=0 accepted")
	}
	if _, err := NewRunner("x", -5, func(_, _ float64) error { return nil }); err == nil {
		t.Error("negative hz accepted")
	}
	if _, err := NewRunner("x", 60, nil); err == nil {
		t.Error("nil TickFunc accepted")
	}
}

func TestRunnerMaxTicks(t *testing.T) {
	var mu sync.Mutex
	var times []float64
	r, err := NewRunner("test", 100, func(simTime, dt float64) error {
		mu.Lock()
		times = append(times, simTime)
		mu.Unlock()
		if dt != 0.01 {
			t.Errorf("dt = %v, want 0.01", dt)
		}
		return nil
	}, MaxTicks(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(times) != 5 {
		t.Fatalf("ticks = %d, want 5", len(times))
	}
	// Fixed-step sim time: 0, 0.01, 0.02, ...
	for i, ts := range times {
		if math.Abs(ts-float64(i)*0.01) > 1e-12 {
			t.Errorf("tick %d simTime = %v", i, ts)
		}
	}
	if r.Ticks() != 5 {
		t.Errorf("Ticks = %d", r.Ticks())
	}
}

func TestRunnerStopSentinel(t *testing.T) {
	r, err := NewRunner("test", 1000, func(simTime, _ float64) error {
		if simTime >= 0.003 {
			return Stop
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Errorf("Stop sentinel surfaced as error: %v", err)
	}
	// Ticks at t=0, 0.001, 0.002 complete; the invocation at t=0.003
	// returns Stop and does not count as a completed tick.
	if got := r.Ticks(); got != 3 {
		t.Errorf("Ticks = %d, want 3", got)
	}
}

func TestRunnerErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	r, err := NewRunner("flaky", 1000, func(simTime, _ float64) error {
		if simTime > 0 {
			return boom
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); !errors.Is(err, boom) {
		t.Errorf("Wait = %v, want wrapped boom", err)
	}
	if err := r.Err(); !errors.Is(err, boom) {
		t.Errorf("Err = %v", err)
	}
}

func TestRunnerDoubleStart(t *testing.T) {
	r, err := NewRunner("x", 100, func(_, _ float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); !errors.Is(err, ErrAlreadyStarted) {
		t.Errorf("second Start = %v, want ErrAlreadyStarted", err)
	}
}

func TestRunnerStopUnblocks(t *testing.T) {
	r, err := NewRunner("x", 1e6, func(_, _ float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		r.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung")
	}
	// Repeated stop is fine.
	r.Stop()
}

func TestRunnerRealtimePacing(t *testing.T) {
	// 20 ticks at 100 Hz must take at least ~180 ms of wall time.
	r, err := NewRunner("rt", 100, func(_, _ float64) error { return nil },
		Realtime(), MaxTicks(20))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	if err := r.Wait(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("20 ticks at 100 Hz took only %v", elapsed)
	}
}

func TestGroup(t *testing.T) {
	var g Group
	var ticked [3]chan struct{} // each closed by its runner's first tick
	for i := range ticked {
		first := make(chan struct{})
		ticked[i] = first
		var once sync.Once
		r, err := NewRunner("g", 1000, func(_, _ float64) error {
			once.Do(func() { close(first) })
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Add(r)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	for i, first := range ticked {
		select {
		case <-first:
		case <-time.After(10 * time.Second):
			g.Stop()
			t.Fatalf("runner %d never ticked", i)
		}
	}
	g.Stop()
	if err := g.Err(); err != nil {
		t.Errorf("group err = %v", err)
	}
}

func TestGroupStartFailureRollsBack(t *testing.T) {
	var g Group
	ok, err := NewRunner("ok", 100, func(_, _ float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	g.Add(ok)
	// A runner that was already started cannot be started again: force the
	// group's second Start to fail.
	bad, err := NewRunner("bad", 100, func(_, _ float64) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Start(); err != nil {
		t.Fatal(err)
	}
	defer bad.Stop()
	g.Add(bad)

	if err := g.Start(); !errors.Is(err, ErrAlreadyStarted) {
		t.Fatalf("group Start = %v, want ErrAlreadyStarted", err)
	}
	// The first runner must have been stopped by the rollback.
	select {
	case <-ok.doneCh:
	case <-time.After(2 * time.Second):
		t.Error("rollback did not stop earlier runner")
	}
}
