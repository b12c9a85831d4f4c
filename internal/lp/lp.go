// Package lp provides the Logical Process runtime of the COD environment
// (§2.1): each module of the simulator runs as a standalone LP that only
// talks to its resident Communication Backbone, never to other LPs
// directly. This package supplies the common machinery every LP shares — a
// fixed-rate tick loop with real-time pacing or free-running (turbo)
// execution — so modules contain only their simulation logic.
//
// # How the federation keeps time
//
// This package is all the time management the federation has. Every LP
// owns a Runner, and a Runner counts its own simulation time: a Realtime
// runner ticks on a wall-clock ticker, its period divided by TimeScale,
// and one without Realtime free-runs as fast as the CPU allows. Nothing
// orders ticks across LPs. The backbone stamps each update with its
// publisher's simulation time and delivers it on arrival, a subscriber
// reads the newest state its mailbox holds, and no LP waits for another's
// clock. Which sample a tick sees therefore depends on how the host
// scheduled the goroutines, and a federated run (sim.New, whose LPs are
// all Realtime at sim.Config's TimeScale) is not reproducible run to run.
// The deterministic path is the headless one, trace.Flight, which steps
// pilot, dynamics and scenario engine in one goroutine and is what the
// goldens, the verdict cache and the batch sweeps fly.
package lp

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// TickFunc advances an LP by one fixed step. simTime is the LP-local
// simulation time at the *start* of the step, dt the step size in seconds.
// Returning an error stops the runner; returning Stop stops it cleanly.
type TickFunc func(simTime, dt float64) error

// Stop is returned by a TickFunc to end the run without error.
var Stop = errors.New("lp: stop requested") //nolint:errname // sentinel by design

// ErrAlreadyStarted reports a second Start on the same Runner.
var ErrAlreadyStarted = errors.New("lp: runner already started")

// Runner drives a TickFunc at a fixed rate. The zero value is unusable;
// construct with NewRunner.
type Runner struct {
	name string
	dt   time.Duration
	fn   TickFunc
	cfg  runnerCfg

	mu      sync.Mutex
	started bool
	err     error
	ticks   uint64

	stopCh   chan struct{}
	stopOnce sync.Once
	doneCh   chan struct{}
}

type runnerCfg struct {
	realtime  bool
	maxTicks  uint64
	timeScale float64
}

// RunnerOption configures a Runner.
type RunnerOption func(*runnerCfg)

// Realtime paces ticks against the wall clock (the production mode).
// Without it the runner free-runs as fast as the CPU allows, which is what
// deterministic tests and benchmarks want.
func Realtime() RunnerOption {
	return func(c *runnerCfg) { c.realtime = true }
}

// TimeScale accelerates (scale > 1) or slows (scale < 1) a Realtime runner
// relative to the wall clock while keeping the simulation step unchanged:
// at scale 10 a 60 Hz LP ticks 600 times per wall second, each tick still
// advancing 1/60 s of simulation time. Ignored without Realtime.
func TimeScale(scale float64) RunnerOption {
	return func(c *runnerCfg) {
		if scale > 0 {
			c.timeScale = scale
		}
	}
}

// MaxTicks stops the runner cleanly after n ticks. Zero means unbounded.
func MaxTicks(n uint64) RunnerOption {
	return func(c *runnerCfg) { c.maxTicks = n }
}

// NewRunner builds a runner stepping fn at hz steps per simulated second.
func NewRunner(name string, hz float64, fn TickFunc, opts ...RunnerOption) (*Runner, error) {
	if hz <= 0 {
		return nil, fmt.Errorf("lp: %s: rate must be positive, got %v", name, hz)
	}
	if fn == nil {
		return nil, fmt.Errorf("lp: %s: nil TickFunc", name)
	}
	cfg := runnerCfg{}
	for _, o := range opts {
		o(&cfg)
	}
	return &Runner{
		name:   name,
		dt:     time.Duration(float64(time.Second) / hz),
		fn:     fn,
		cfg:    cfg,
		stopCh: make(chan struct{}),
		doneCh: make(chan struct{}),
	}, nil
}

// Name returns the LP name.
func (r *Runner) Name() string { return r.name }

// Start launches the tick loop goroutine. It can be called once.
func (r *Runner) Start() error {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrAlreadyStarted, r.name)
	}
	r.started = true
	r.mu.Unlock()
	go r.loop()
	return nil
}

// Stop asks the loop to end and waits for it. Safe to call multiple times
// and before Start (in which case the runner can never start — Start's loop
// exits immediately).
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stopCh) })
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.doneCh
	}
}

// Wait blocks until the loop exits on its own (MaxTicks, Stop sentinel or
// error) and returns the terminal error, nil for a clean stop.
func (r *Runner) Wait() error {
	<-r.doneCh
	return r.Err()
}

// Err returns the terminal error of the loop (nil while running or after a
// clean stop).
func (r *Runner) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Ticks returns how many ticks have completed.
func (r *Runner) Ticks() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ticks
}

func (r *Runner) loop() {
	defer close(r.doneCh)
	dtSec := r.dt.Seconds()
	var (
		simTime float64
		ticker  *time.Ticker
	)
	if r.cfg.realtime {
		interval := r.dt
		if r.cfg.timeScale > 0 {
			interval = time.Duration(float64(r.dt) / r.cfg.timeScale)
			if interval <= 0 {
				interval = time.Nanosecond
			}
		}
		ticker = time.NewTicker(interval)
		defer ticker.Stop()
	}
	for n := uint64(0); r.cfg.maxTicks == 0 || n < r.cfg.maxTicks; n++ {
		select {
		case <-r.stopCh:
			return
		default:
		}
		if ticker != nil {
			select {
			case <-ticker.C:
			case <-r.stopCh:
				return
			}
		}
		if err := r.fn(simTime, dtSec); err != nil {
			if !errors.Is(err, Stop) {
				r.mu.Lock()
				r.err = fmt.Errorf("lp: %s: %w", r.name, err)
				r.mu.Unlock()
			}
			return
		}
		simTime += dtSec
		r.mu.Lock()
		r.ticks++
		r.mu.Unlock()
	}
}

// Group owns a set of runners started and stopped together — the node-level
// container for "one or many LPs per computer" (§2.1).
type Group struct {
	mu      sync.Mutex
	runners []*Runner
}

// Add registers a runner with the group.
func (g *Group) Add(r *Runner) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.runners = append(g.runners, r)
}

// Start starts every runner; on the first failure it stops the ones already
// started and returns the error.
func (g *Group) Start() error {
	g.mu.Lock()
	runners := append([]*Runner(nil), g.runners...)
	g.mu.Unlock()
	for i, r := range runners {
		if err := r.Start(); err != nil {
			for _, started := range runners[:i] {
				started.Stop()
			}
			return err
		}
	}
	return nil
}

// Stop stops every runner and waits for all loops to exit.
func (g *Group) Stop() {
	g.mu.Lock()
	runners := append([]*Runner(nil), g.runners...)
	g.mu.Unlock()
	for _, r := range runners {
		r.Stop()
	}
}

// Err returns the first terminal error among the group's runners, if any.
func (g *Group) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, r := range g.runners {
		if err := r.Err(); err != nil {
			return err
		}
	}
	return nil
}
