package trace_test

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"codsim/internal/fom"
	"codsim/internal/mathx"
	"codsim/internal/scenario"
	"codsim/internal/scenario/gen"
	"codsim/internal/trace"
)

// fingerprintGolden pins the step kernel's trajectories bit for bit. The
// file was written from the kernel as it stood before the step-kernel
// optimisations (PR 13's first commit) and must never be regenerated to
// make a kernel change pass: a change that moves it is not exactness-
// preserving and does not belong in the kernel. To pin a deliberately new
// physics, delete the file and run the test once.
const fingerprintGolden = "testdata/fingerprint.golden"

// fingerprint accumulates FNV-64a (little-endian bytes of each value) over
// the raw bits of everything the kernel produces. Hand-rolled: hash/fnv's
// interface call per 8 bytes costs more than the kernel it measures.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type fingerprint struct {
	h     uint64
	ticks int64
}

func (f *fingerprint) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.h = (f.h ^ (v & 0xff)) * fnvPrime
		v >>= 8
	}
}

func (f *fingerprint) f64(vs ...float64) {
	for _, v := range vs {
		f.u64(math.Float64bits(v))
	}
}

func (f *fingerprint) vec(v mathx.Vec3) { f.f64(v.X, v.Y, v.Z) }

func (f *fingerprint) flag(b bool) {
	if b {
		f.u64(1)
	} else {
		f.u64(0)
	}
}

func (f *fingerprint) craneState(s *fom.CraneState) {
	f.vec(s.Position)
	f.f64(s.Heading, s.Pitch, s.Roll, s.Speed, s.BoomSwing, s.BoomLuff, s.BoomLen, s.CableLen)
	f.vec(s.HookPos)
	f.vec(s.HookVel)
	f.f64(s.CargoMass, s.EngineRPM, s.Stability)
	f.vec(s.CargoPos)
	f.flag(s.CargoHeld)
	f.flag(s.EngineOn)
	f.u64(uint64(s.CargoID))
	f.u64(uint64(s.CraneID))
}

// fly flies spec tick by tick on a trace.Flight — the kernel Runner.RunSkill
// flies — folding every tick into the fingerprint. Like the oracle's Runner
// it gives up on a run whose phase cursors have not advanced for
// trace.DefaultStallBudget sim-seconds, so the handful of candidates no
// pilot completes cost a stall window each, not the full budget.
func (f *fingerprint) fly(t *testing.T, spec scenario.Spec, skill trace.SkillProfile) {
	fl, err := trace.NewFlight(spec, skill)
	if err != nil {
		t.Errorf("%s: %v", spec.Name, err)
		return
	}
	eng := fl.Engine
	maxSim := trace.DefaultBudget(spec)
	progress, progressAt := eng.Progress(), 0.0
	for fl.SimTime < maxSim {
		if fl.Ticks%60 == 0 {
			if p := eng.Progress(); p != progress {
				progress, progressAt = p, fl.SimTime
			} else if fl.SimTime-progressAt >= trace.DefaultStallBudget {
				break
			}
		}
		if fl.Done() {
			break
		}
		fl.Tick()
		for c := range fl.States {
			f.craneState(&fl.States[c])
		}
		st := eng.State()
		f.f64(st.Score)
		f.u64(uint64(st.Collisions))
		f.u64(uint64(st.Phase))
	}
	f.ticks += int64(fl.Ticks)
	f.f64(fl.SimTime)
	f.u64(uint64(eng.AlarmEvents()))
}

// TestTrajectoryFingerprint flies the eight library specs and forty
// generated candidates, expert and novice, and compares one hash over
// every float of every tick against the committed golden.
func TestTrajectoryFingerprint(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets other ports fuse x*y+z into one rounding.
		t.Skipf("golden was written on amd64; %s may round differently", runtime.GOARCH)
	}
	specs := scenario.Library()
	for k := int64(0); k < 40; k++ {
		spec, err := gen.Generate(gen.SubSeed(42, k), gen.DefaultParams())
		if err != nil {
			t.Fatalf("candidate %d: %v", k, err)
		}
		specs = append(specs, spec)
	}
	// Flights are independent, so they run on every core; the per-flight
	// hashes fold into one in flight order.
	type flight struct {
		spec  scenario.Spec
		skill trace.SkillProfile
		fingerprint
	}
	var flights []*flight
	for _, skill := range []trace.SkillProfile{{}, trace.SkillNovice()} {
		for _, spec := range specs {
			flights = append(flights, &flight{spec: spec, skill: skill, fingerprint: fingerprint{h: fnvOffset}})
		}
	}
	var wg sync.WaitGroup
	next := make(chan *flight)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fl := range next {
				fl.fly(t, fl.spec, fl.skill)
			}
		}()
	}
	for _, fl := range flights {
		next <- fl
	}
	close(next)
	wg.Wait()
	total := fingerprint{h: fnvOffset}
	for _, fl := range flights {
		total.u64(fl.h)
		total.ticks += fl.ticks
	}
	got := fmt.Sprintf("fnv64a=%016x ticks=%d\n", total.h, total.ticks)

	want, err := os.ReadFile(fingerprintGolden)
	if os.IsNotExist(err) {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fingerprintGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("no golden: wrote %s with %s — commit it and re-run", fingerprintGolden, strings.TrimSpace(got))
	}
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("trajectory fingerprint moved:\n got  %s want %s", got, want)
	}
}
