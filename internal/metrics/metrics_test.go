package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Sum() != 0 {
		t.Error("zero-value Summary not empty")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.Count() != 8 {
		t.Errorf("Count = %d", s.Count())
	}
	if got := s.Sum(); got != 40 {
		t.Errorf("Sum = %v", got)
	}
}

func TestSummaryConcurrent(t *testing.T) {
	var s Summary
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s.Observe(1)
			}
		}()
	}
	wg.Wait()
	if s.Count() != 8000 {
		t.Errorf("Count = %d, want 8000", s.Count())
	}
	if s.Sum() != 8000 {
		t.Errorf("Sum = %v, want 8000", s.Sum())
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("Value = %d, want 5", got)
	}
	var wg sync.WaitGroup
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 1005 {
		t.Errorf("Value = %d, want 1005", got)
	}
}

func TestFrameTrackerFPS(t *testing.T) {
	var ft FrameTracker
	if ft.FPS() != 0 {
		t.Error("FPS before ticks != 0")
	}
	// 60 frames at exactly 62.5 ms → 16 fps (the paper's rate).
	for i := 0; i < 60; i++ {
		ft.TickInterval(62500 * time.Microsecond)
	}
	if got := ft.FPS(); math.Abs(got-16) > 1e-9 {
		t.Errorf("FPS = %v, want 16", got)
	}
}

func TestFrameTrackerInterval(t *testing.T) {
	var ft FrameTracker
	ft.TickInterval(50 * time.Millisecond)
	ft.TickInterval(50 * time.Millisecond)
	ft.TickInterval(100 * time.Millisecond)
	if got := ft.FPS(); math.Abs(got-15) > 1e-9 { // 3 frames / 0.2 s
		t.Errorf("FPS = %v, want 15", got)
	}
}
