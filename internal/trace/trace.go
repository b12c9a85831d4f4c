// Package trace supplies the simulator's operator inputs: recorded control
// traces that can be replayed deterministically, and a closed-loop
// Autopilot that stands in for the human trainee — it drives the carrier to
// the test ground, works the boom through the licensing trajectory of
// Fig. 9, and sets the cargo back down, providing a repeatable workload for
// the scoring tests and the benchmarks.
//
// It is also where the simulator runs headless. A Flight is a scenario's
// rig (scenario.NewRig) with one Autopilot per crane, and Flight.Tick is
// the one place the headless coupling — pilot, dynamics step, engine
// judgement, 60 times a simulated second — is written. Runner.RunSkill
// (and RunContext, Completable, codbatch, every dist worker slot and the
// certification oracle through it) is a budget, a stall window and a
// context poll around that tick; the trajectory golden, the 0-alloc gates,
// the exam example and TestCarelessRunFailsExam fly the same Flight. The federation in
// package sim is not a second copy of it: its LPs make the same three
// calls, but through the backbone at 60/50/30 Hz, and share only the rig
// constructor.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"codsim/internal/fom"
)

// Sample is one timestamped control frame.
type Sample struct {
	T  float64 // seconds since trace start
	In fom.ControlInput
}

// Trace is a time-ordered control recording.
type Trace struct {
	samples []Sample
}

// NewTrace builds a trace from samples (sorted by time; input is copied).
func NewTrace(samples []Sample) *Trace {
	cp := append([]Sample(nil), samples...)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].T < cp[j].T })
	return &Trace{samples: cp}
}

// Len returns the number of samples.
func (tr *Trace) Len() int { return len(tr.samples) }

// Duration returns the time of the last sample.
func (tr *Trace) Duration() float64 {
	if len(tr.samples) == 0 {
		return 0
	}
	return tr.samples[len(tr.samples)-1].T
}

// At returns the control frame active at time t (zero-order hold: the last
// sample at or before t; zero input before the first sample).
func (tr *Trace) At(t float64) fom.ControlInput {
	idx := sort.Search(len(tr.samples), func(i int) bool { return tr.samples[i].T > t })
	if idx == 0 {
		return fom.ControlInput{}
	}
	return tr.samples[idx-1].In
}

// Recorder captures control frames into a trace.
type Recorder struct {
	samples []Sample
	last    fom.ControlInput
	started bool
}

// Record appends a frame; consecutive identical frames are coalesced so
// long holds cost one sample.
func (r *Recorder) Record(t float64, in fom.ControlInput) {
	if r.started && in == r.last {
		return
	}
	r.samples = append(r.samples, Sample{T: t, In: in})
	r.last = in
	r.started = true
}

// Trace returns the recording.
func (r *Recorder) Trace() *Trace { return NewTrace(r.samples) }

// Write serializes a trace as one whitespace-delimited line per sample:
//
//	t steering throttle brake bjx bjy hjx hjy ignition gear latch
func Write(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	for _, s := range tr.samples {
		_, err := fmt.Fprintf(bw, "%g %g %g %g %g %g %g %g %d %d %d\n",
			s.T, s.In.Steering, s.In.Throttle, s.In.Brake,
			s.In.BoomJoyX, s.In.BoomJoyY, s.In.HoistJoyX, s.In.HoistJoyY,
			b2i(s.In.Ignition), s.In.Gear, b2i(s.In.HookLatch))
		if err != nil {
			return fmt.Errorf("trace: write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: flush: %w", err)
	}
	return nil
}

// Read parses a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	var samples []Sample
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		f := strings.Fields(text)
		if len(f) != 11 {
			return nil, fmt.Errorf("trace: line %d: %d fields, want 11", line, len(f))
		}
		var vals [8]float64
		for i := 0; i < 8; i++ {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d field %d: %w", line, i+1, err)
			}
			vals[i] = v
		}
		ign, err := strconv.Atoi(f[8])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d ignition: %w", line, err)
		}
		gear, err := strconv.ParseUint(f[9], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d gear: %w", line, err)
		}
		latch, err := strconv.Atoi(f[10])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d latch: %w", line, err)
		}
		samples = append(samples, Sample{
			T: vals[0],
			In: fom.ControlInput{
				Steering: vals[1], Throttle: vals[2], Brake: vals[3],
				BoomJoyX: vals[4], BoomJoyY: vals[5],
				HoistJoyX: vals[6], HoistJoyY: vals[7],
				Ignition: ign != 0, Gear: uint32(gear), HookLatch: latch != 0,
			},
		})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scan: %w", err)
	}
	return NewTrace(samples), nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
