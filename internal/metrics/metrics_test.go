package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Count() != 0 || s.Mean() != 0 || s.String() != "n=0" {
		t.Error("zero-value Summary not empty")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.Count() != 8 {
		t.Errorf("Count = %d", s.Count())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-12 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := s.Min(); got != 2 {
		t.Errorf("Min = %v", got)
	}
	if got := s.Max(); got != 9 {
		t.Errorf("Max = %v", got)
	}
	if got := s.Sum(); got != 40 {
		t.Errorf("Sum = %v", got)
	}
	// Sample stddev of that classic dataset is sqrt(32/7).
	if got, want := s.StdDev(), math.Sqrt(32.0/7.0); math.Abs(got-want) > 1e-12 {
		t.Errorf("StdDev = %v, want %v", got, want)
	}
	if str := s.String(); !strings.Contains(str, "n=8") {
		t.Errorf("String = %q", str)
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
	if s.Mean() != 1 {
		t.Errorf("Mean = %v, want 1", s.Mean())
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
	base := time.Unix(0, 0)
	// 60 frames at exactly 62.5 ms → 16 fps (the paper's rate).
	for i := 0; i <= 60; i++ {
		ft.TickAt(base.Add(time.Duration(i) * 62500 * time.Microsecond))
	}
	if got := ft.FPS(); math.Abs(got-16) > 1e-9 {
		t.Errorf("FPS = %v, want 16", got)
	}
	if ft.Frames() != 60 {
		t.Errorf("Frames = %d", ft.Frames())
	}
	if got := ft.Jitter(); got != 0 {
		t.Errorf("Jitter = %v, want 0 for uniform frames", got)
	}
	if got := ft.WorstFrame(); got != 62500*time.Microsecond {
		t.Errorf("WorstFrame = %v", got)
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
	if got := ft.WorstFrame(); got != 100*time.Millisecond {
		t.Errorf("WorstFrame = %v", got)
	}
	if ft.Jitter() == 0 {
		t.Error("Jitter = 0 for non-uniform frames")
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("polygons", "fps", "note")
	tb.AddRow(3235, 16.04, "paper")
	tb.AddRow(6470, 8.3, "double")
	out := tb.String()
	if !strings.Contains(out, "polygons") || !strings.Contains(out, "16.04") {
		t.Errorf("table output missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Errorf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// Columns align: every line has the same prefix width for column 2.
	if !strings.HasPrefix(lines[1], "--------") {
		t.Errorf("rule line = %q", lines[1])
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("v")
	tb.AddRow(3.0)        // integral → no decimals
	tb.AddRow(123.456)    // >=100 → one decimal
	tb.AddRow(3.14159)    // >=1 → two decimals
	tb.AddRow(0.00123456) // <1 → four decimals
	out := tb.String()
	var trimmed []string
	for _, ln := range strings.Split(out, "\n") {
		trimmed = append(trimmed, strings.TrimRight(ln, " "))
	}
	body := strings.Join(trimmed, "\n")
	for _, want := range []string{"\n3\n", "123.5", "3.14", "0.0012"} {
		if !strings.Contains(body, want) {
			t.Errorf("formatted table missing %q:\n%s", want, out)
		}
	}
}
