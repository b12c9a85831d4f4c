// Package gen procedurally generates training scenarios: seeded,
// deterministic scenario.Specs sampled from the proven envelopes of the
// shipped library, paired with a completability oracle so every spec a
// campaign dispatches is certified runnable. The batch machinery of
// PRs 2–5 can sweep far more content than eight hand-built scenarios
// supply; this package turns one (seed, Params) pair into an unbounded,
// reproducible stream of them.
//
// Three layers:
//
//   - Generate(seed, Params) emits one valid Spec per seed: randomized
//     course geometry (pads, gates and bars sampled inside the crane's
//     reach band on the levelled test ground), cargo sets (mass, site
//     placement, 2-hook tandem beams), wind and visibility regimes, and
//     phase graphs across four archetypes — linear carries, out-and-back
//     shuttles, independent twin yards, and two-crane tandem lifts — all
//     deterministic per seed and validated via Spec.Validate.
//
//   - Verify certifies a candidate: a cheap static reachability check
//     (StaticCheck) rejects obviously impossible geometry before any sim
//     time is spent, then the oracle dry-run (trace.Completable — the
//     expert autopilot, headless, directly coupled) proves the spec is
//     actually passable.
//
//   - Stream yields certified specs in candidate order: candidate k draws
//     its sub-seed from the campaign seed via a splitmix64 stream, and a
//     rejected candidate is simply skipped — resampling continues under
//     the same stream, so the emitted sequence is a pure function of
//     (seed, Params) no matter how many candidates the oracle vetoes.
//     Certification is a pipeline, not a batch: with Stream.Prefetch,
//     Stream.Parallel lanes each certify one candidate at a time, in
//     whatever order they finish, into a ring; Next merges the outcomes
//     one by one in candidate order on the caller's goroutine — tallies,
//     hooks, cache appends — and only as far as the next emission. What
//     the lanes certified beyond that is invisible until merged, and
//     discarded by Close.
//
// cmd/codbatch's -campaign mode feeds a Stream straight into the dist
// coordinator's work list; package dist never imports gen.
package gen

import (
	"fmt"
	"math"
	"math/rand"

	"codsim/internal/dynamics"
	"codsim/internal/mathx"
	"codsim/internal/scenario"
)

// Params bounds the generator's sampling space. The zero value is NOT
// usable — start from DefaultParams. Every field below participates in
// Key, so two campaigns with different knobs never collide on a sweep
// label.
type Params struct {
	// TwoCraneProb is the chance a candidate declares two cranes (a twin
	// yard or a tandem lift); the rest are single-crane courses.
	TwoCraneProb float64
	// TandemProb is the chance a two-crane candidate shares one 2-hook
	// beam (tandem lift) rather than working independent yards.
	TandemProb float64
	// WindProb is the chance of a wind regime (breeze or gusty).
	WindProb float64
	// NightProb is the chance of low visibility (0.2–0.45).
	NightProb float64
	// MinGates and MaxGates bound the traverse gate count of single-crane
	// courses (twin/tandem courses use shorter runs).
	MinGates, MaxGates int
	// MaxBars bounds how many obstruction bars line the carry (0 allowed).
	MaxBars int
	// MinCargoMass and MaxCargoMass bound single-hook cargo mass in kg;
	// tandem beams draw from [MaxCargoMass, TandemMassCap].
	MinCargoMass, MaxCargoMass float64
	// TandemMassCap caps the shared beam's mass in kg.
	TandemMassCap float64
	// OracleBudget is the dry-run's sim-time budget in seconds; 0 means
	// three par times, floored at 900 — the same rule headless batches use.
	OracleBudget float64
}

// DefaultParams returns the shipped sampling space: mostly single-crane
// courses with occasional twins and tandems, a third of them windy, a
// quarter at night, masses inside the load chart at the sampled radii.
func DefaultParams() Params {
	return Params{
		TwoCraneProb:  0.35,
		TandemProb:    0.5,
		WindProb:      0.35,
		NightProb:     0.25,
		MinGates:      3,
		MaxGates:      6,
		MaxBars:       4,
		MinCargoMass:  1000,
		MaxCargoMass:  2600,
		TandemMassCap: 3800,
		OracleBudget:  0,
	}
}

// Key derives the campaign label for a (seed, count, Params) triple:
// sweeps stored under it are reproducible — the same key always names the
// identical job list — and therefore diffable across code changes.
func Key(seed int64, count int, p Params) string {
	return fmt.Sprintf("campaign-%dx%d-%08x", seed, count, paramsHash(p))
}

// Sig is the count-independent generation signature a verdict cache keys
// on: seed plus the params hash. Candidate k's spec is fully determined by
// it, so cached verdicts are shared between campaigns that differ only in
// count (a 42:100 warm-up seeds the cache for 42:100000).
func Sig(seed int64, p Params) string {
	return fmt.Sprintf("%d-%08x", seed, paramsHash(p))
}

// paramsHash folds every generation-affecting Params field through FNV-1a;
// Oracle/Parallel-style execution knobs must not change the hash, only
// the sampled space may. New Params fields MUST be added here — distinct
// knob settings may never collide on a campaign key or a cache signature.
func paramsHash(p Params) uint32 {
	sig := fmt.Sprintf("%v|%v|%v|%v|%d|%d|%d|%v|%v|%v|%v",
		p.TwoCraneProb, p.TandemProb, p.WindProb, p.NightProb,
		p.MinGates, p.MaxGates, p.MaxBars,
		p.MinCargoMass, p.MaxCargoMass, p.TandemMassCap, p.OracleBudget)
	h := uint64(14695981039346656037)
	for i := 0; i < len(sig); i++ {
		h ^= uint64(sig[i])
		h *= 1099511628211
	}
	return uint32(h ^ h>>32)
}

// SubSeed derives candidate k's generator seed from the campaign seed —
// a splitmix64 step, so neighbouring candidates decorrelate fully while
// the mapping stays a pure function of (seed, k).
func SubSeed(seed, k int64) int64 {
	z := uint64(seed) + uint64(k)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// Generate emits one candidate scenario for the seed: deterministic (the
// same seed and params always yield the byte-identical Spec), validated
// via Spec.Validate before return, but NOT yet certified completable —
// that is Verify's job. Spec names carry the archetype ("gen-linear",
// "gen-shuttle", "gen-twin", "gen-tandem") so campaign reports group runs
// into meaningful percentile rows; the seed rides in the Title.
func Generate(seed int64, p Params) (scenario.Spec, error) {
	if p.MinGates < 1 || p.MaxGates < p.MinGates {
		return scenario.Spec{}, fmt.Errorf("gen: gate bounds [%d,%d]", p.MinGates, p.MaxGates)
	}
	if p.MinCargoMass <= 0 || p.MaxCargoMass < p.MinCargoMass {
		return scenario.Spec{}, fmt.Errorf("gen: mass bounds [%v,%v]", p.MinCargoMass, p.MaxCargoMass)
	}
	r := rand.New(rand.NewSource(seed))
	g := &sampler{r: r, p: p}

	two := r.Float64() < p.TwoCraneProb
	tandem := two && r.Float64() < p.TandemProb

	var spec scenario.Spec
	switch {
	case tandem:
		spec = g.tandem()
	case two:
		spec = g.twin()
	case r.Float64() < 0.35:
		spec = g.shuttle()
	default:
		spec = g.linear()
	}
	g.weather(&spec)
	spec.Title = fmt.Sprintf("%s #%x", spec.Title, uint64(seed))
	if err := spec.Validate(); err != nil {
		// A generator bug, not bad luck: every sampling band above is
		// chosen so the assembled graph is structurally valid.
		return scenario.Spec{}, fmt.Errorf("gen: seed %d: %w", seed, err)
	}
	return spec, nil
}

// sampler wraps the candidate's RNG with quantized draws: values round to
// coarse steps so generated files read (and diff) like the hand-written
// library, without costing determinism.
type sampler struct {
	r *rand.Rand
	p Params
}

// in draws uniformly from [lo, hi] quantized to step.
func (g *sampler) in(lo, hi, step float64) float64 {
	v := lo + (hi-lo)*g.r.Float64()
	return math.Round(v/step) * step
}

// count draws an int from [lo, hi].
func (g *sampler) count(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + g.r.Intn(hi-lo+1)
}

// base returns the shared site frame: the default start pose and
// test-ground circle with no bars and no legacy trajectory (each
// archetype installs its own).
func (g *sampler) base() scenario.Course {
	c := scenario.DefaultCourse()
	c.Bars = nil
	c.Waypoints = nil
	return c
}

// park samples the carrier's parking spot: the classic spot south-east of
// the pickup, jittered inside the band the whole library proves out.
func (g *sampler) park(zone mathx.Vec3) mathx.Vec3 {
	return zone.Add(mathx.V3(g.in(6.5, 9, 0.5), 0, g.in(8.5, 11, 0.5)))
}

// gates samples a zig-zag carry east of the zone: n gates alternating
// across the carry line, each one pulled radially into the reach band
// from the parking spot.
func (g *sampler) gates(zone, park mathx.Vec3, n int, amp float64) []mathx.Vec3 {
	if n < 1 {
		n = 1
	}
	x0 := g.in(1.5, 2.5, 0.5)
	xMax := g.in(9.5, 11.5, 0.5)
	dx := (xMax - x0) / float64(n)
	side := 1.0
	if g.r.Float64() < 0.5 {
		side = -1
	}
	wps := make([]mathx.Vec3, 0, n)
	for i := 0; i < n; i++ {
		x := x0 + dx*float64(i)
		z := side * g.in(amp*0.7, amp, 0.2)
		side = -side
		wps = append(wps, fit(park, zone.Add(mathx.V3(math.Round(x*2)/2, 0, z))))
	}
	return wps
}

// fit radially projects a work point into the carrier's reachable band
// around its parking spot, preserving bearing: the zig-zag shape stays,
// but no sampled gate or pad ever lands where the hook cannot follow.
// The band is narrower than StaticCheck's limits so rounding to the 0.1 m
// grid never pushes a fitted point back out.
func fit(park, wp mathx.Vec3) mathx.Vec3 {
	const lo, hi = 7.0, 14.8
	dx, dz := wp.X-park.X, wp.Z-park.Z
	d := math.Hypot(dx, dz)
	if d >= lo && d <= hi {
		return wp
	}
	t := lo
	if d > hi {
		t = hi
	}
	if d < 1e-9 {
		return mathx.V3(park.X+t, wp.Y, park.Z)
	}
	s := t / d
	return mathx.V3(math.Round((park.X+dx*s)*10)/10, wp.Y, math.Round((park.Z+dz*s)*10)/10)
}

// bars lines the carry with obstruction bars between the zone and the far
// gate: low enough for the autopilot's above-the-bars carry, off the gate
// line so the course is obstructed, not blocked.
func (g *sampler) bars(c *scenario.Course, zone mathx.Vec3, n int) {
	for i := 0; i < n; i++ {
		h := g.in(1.0, 1.5, 0.1)
		c.Bars = append(c.Bars, scenario.Bar{
			Name: fmt.Sprintf("bar-%c", 'A'+i),
			Pos:  zone.Add(mathx.V3(g.in(2.5, 10.5, 0.5), h, 0)),
			Half: mathx.V3(0.15, h, g.in(1.3, 1.8, 0.1)),
		})
	}
}

// weather samples the wind and visibility regimes onto the finished spec.
func (g *sampler) weather(spec *scenario.Spec) {
	if g.r.Float64() < g.p.WindProb {
		speed := g.in(1.5, 3.4, 0.1)
		dir := g.r.Float64() * 2 * math.Pi
		spec.Wind = dynamics.Wind{
			Mean:   mathx.V3(math.Round(speed*math.Cos(dir)*10)/10, 0, math.Round(speed*math.Sin(dir)*10)/10),
			Gust:   g.in(1.0, 2.8, 0.1),
			Period: g.in(5, 9, 0.5),
		}
	}
	if g.r.Float64() < g.p.NightProb {
		spec.Visibility = g.in(0.2, 0.45, 0.05)
	}
}

// linear is the classic-exam archetype: drive in, lift, carry the zig-zag
// gates, set down — on a side pad or back in the circle.
func (g *sampler) linear() scenario.Spec {
	c := g.base()
	mass := g.in(g.p.MinCargoMass, g.p.MaxCargoMass, 10)
	c.CargoMass = mass
	zone := c.Circle
	park := g.park(zone)
	nGates := g.count(g.p.MinGates, g.p.MaxGates)
	wps := g.gates(zone, park, nGates, 3.2)
	g.bars(&c, zone, g.count(0, g.p.MaxBars))
	c.ParTime = g.in(420, 600, 10)

	pad := zone
	padRadius := g.in(2.6, 3.4, 0.2)
	if g.r.Float64() < 0.5 {
		pad = fit(park, zone.Add(mathx.V3(g.in(-3, 2, 0.5), 0, g.in(4, 6, 0.5))))
		padRadius = g.in(2.2, 3.0, 0.2)
		wps = append(wps, pad)
	} else {
		wps = append(wps, zone)
	}
	c.DriveTarget = park
	return scenario.Spec{
		Name:   "gen-linear",
		Title:  "Generated linear carry",
		Course: c,
		Cargos: []scenario.Cargo{{Name: "the crate", Pos: zone, Mass: mass}},
		Phases: []scenario.PhaseSpec{
			{Name: "the test ground", Kind: scenario.PhaseDrive, Target: park, Radius: 4},
			{Name: "pick", Kind: scenario.PhaseLift, Cargo: 0},
			{Name: "the gates", Kind: scenario.PhaseTraverse, Radius: g.in(2.4, 3.0, 0.2), Waypoints: wps},
			{Name: "set-down", Kind: scenario.PhasePlace, Target: pad, Radius: padRadius},
		},
	}
}

// shuttle is the night-precision archetype: carry out to a pad, set down,
// re-pick, carry back to the circle — two lifts and two placements of the
// same cargo.
func (g *sampler) shuttle() scenario.Spec {
	c := g.base()
	mass := g.in(g.p.MinCargoMass, g.p.MaxCargoMass, 10)
	c.CargoMass = mass
	zone := c.Circle
	park := g.park(zone)
	pad := fit(park, zone.Add(mathx.V3(g.in(8, 10, 0.5), 0, g.in(-2, 2, 0.5))))
	out := g.gates(zone, park, g.count(2, 3), 2.8)
	back := make([]mathx.Vec3, 0, len(out))
	for i := len(out) - 1; i >= 0; i-- {
		back = append(back, out[i])
	}
	g.bars(&c, zone, g.count(0, min(2, g.p.MaxBars)))
	c.ParTime = g.in(520, 660, 10)
	c.DriveTarget = park
	gate := g.in(1.7, 2.4, 0.1)
	return scenario.Spec{
		Name:   "gen-shuttle",
		Title:  "Generated shuttle run",
		Course: c,
		Cargos: []scenario.Cargo{{Name: "the pallet", Pos: zone, Mass: mass}},
		Phases: []scenario.PhaseSpec{
			{Name: "the test ground", Kind: scenario.PhaseDrive, Target: park, Radius: 4},
			{Name: "pick", Kind: scenario.PhaseLift, Cargo: 0},
			{Name: "out to the pad", Kind: scenario.PhaseTraverse, Radius: gate, Waypoints: out},
			{Name: "the pad", Kind: scenario.PhasePlace, Target: pad, Radius: g.in(1.8, 2.4, 0.2)},
			{Name: "re-pick", Kind: scenario.PhaseLift, Cargo: 0},
			{Name: "back home", Kind: scenario.PhaseTraverse, Radius: gate, Waypoints: back},
			{Name: "the circle", Kind: scenario.PhasePlace, Target: zone, Radius: g.in(2.0, 2.6, 0.2)},
		},
	}
}

// twin is the twin-yard archetype: two carriers, two independent picks in
// parallel zones twenty-odd meters apart on the levelled ground.
func (g *sampler) twin() scenario.Spec {
	c := g.base()
	mass := g.in(g.p.MinCargoMass, g.p.MaxCargoMass, 10)
	c.CargoMass = mass
	zoneN := c.Circle
	zoneS := c.Circle.Add(mathx.V3(g.in(-2, 2, 0.5), 0, -g.in(18, 22, 0.5)))
	c.ParTime = g.in(440, 560, 10)
	parkN := g.park(zoneN)
	parkS := zoneS.Add(mathx.V3(g.in(6.5, 9, 0.5), 0, -g.in(8.5, 11, 0.5)))
	padN := fit(parkN, zoneN.Add(mathx.V3(g.in(8, 10, 0.5), 0, g.in(1, 3, 0.5))))
	padS := fit(parkS, zoneS.Add(mathx.V3(g.in(8, 10, 0.5), 0, -g.in(1, 3, 0.5))))
	c.DriveTarget = parkN
	gate := g.in(2.4, 2.8, 0.2)
	runN := append(g.gates(zoneN, parkN, g.count(2, 3), 2.2), padN)
	runS := append(g.gates(zoneS, parkS, g.count(2, 3), 2.2), padS)
	return scenario.Spec{
		Name:   "gen-twin",
		Title:  "Generated twin yard",
		Course: c,
		Cranes: []scenario.CraneDecl{
			{Name: "north", Start: c.Start, StartYaw: c.StartYaw},
			{Name: "south", Start: mathx.V3(140, 0, 30), StartYaw: 0},
		},
		Cargos: []scenario.Cargo{
			{Name: "the north crate", Pos: zoneN, Mass: mass},
			{Name: "the south crate", Pos: zoneS, Mass: mass},
		},
		Phases: []scenario.PhaseSpec{
			{Name: "north yard", Kind: scenario.PhaseDrive, Crane: 0, Target: parkN, Radius: 4},
			{Name: "south yard", Kind: scenario.PhaseDrive, Crane: 1, Target: parkS, Radius: 4},
			{Name: "north pick", Kind: scenario.PhaseLift, Crane: 0, Cargo: 0},
			{Name: "south pick", Kind: scenario.PhaseLift, Crane: 1, Cargo: 1},
			{Name: "north run", Kind: scenario.PhaseTraverse, Crane: 0, Radius: gate, Waypoints: runN},
			{Name: "south run", Kind: scenario.PhaseTraverse, Crane: 1, Radius: gate, Waypoints: runS},
			{Name: "north pad", Kind: scenario.PhasePlace, Crane: 0, Target: padN, Radius: gate},
			{Name: "south pad", Kind: scenario.PhasePlace, Crane: 1, Target: padS, Radius: gate},
		},
	}
}

// tandem is the tandem-beam archetype: a 2-hook beam two cranes lift
// together through shared gates onto a shared pad.
func (g *sampler) tandem() scenario.Spec {
	c := g.base()
	mass := g.in(g.p.MaxCargoMass, g.p.TandemMassCap, 50)
	if g.p.TandemMassCap < g.p.MaxCargoMass {
		mass = g.p.MaxCargoMass
	}
	c.CargoMass = mass
	beam := c.Circle
	standoff := g.in(8.5, 10.5, 0.5)
	parkN := beam.Add(mathx.V3(g.in(1, 2, 0.5), 0, standoff))
	parkS := beam.Add(mathx.V3(g.in(1, 2, 0.5), 0, -standoff))
	pad := beam.Add(mathx.V3(g.in(6.5, 9, 0.5), 0, 0))
	nGates := g.count(2, 3)
	gates := make([]mathx.Vec3, 0, nGates+1)
	for i := 0; i < nGates; i++ {
		frac := float64(i+1) / float64(nGates+1)
		gates = append(gates, beam.Add(mathx.V3(math.Round(pad.X-beam.X)*frac, 0, 0)))
	}
	gates = append(gates, pad)
	c.ParTime = g.in(480, 620, 10)
	c.DriveTarget = parkN
	gate := g.in(2.8, 3.2, 0.2)
	padRadius := g.in(3.2, 3.8, 0.2)
	return scenario.Spec{
		Name:   "gen-tandem",
		Title:  "Generated tandem beam",
		Course: c,
		Cranes: []scenario.CraneDecl{
			{Name: "north", Start: c.Start, StartYaw: c.StartYaw},
			{Name: "south", Start: mathx.V3(140, 0, 30), StartYaw: 0},
		},
		Cargos: []scenario.Cargo{{Name: "the long beam", Pos: beam, Mass: mass, Hooks: 2}},
		Phases: []scenario.PhaseSpec{
			{Name: "north spot", Kind: scenario.PhaseDrive, Crane: 0, Target: parkN, Radius: 4},
			{Name: "south spot", Kind: scenario.PhaseDrive, Crane: 1, Target: parkS, Radius: 4},
			{Name: "north hook", Kind: scenario.PhaseLift, Crane: 0, Cargo: 0, Tandem: true},
			{Name: "south hook", Kind: scenario.PhaseLift, Crane: 1, Cargo: 0, Tandem: true},
			{Name: "the shared gates", Kind: scenario.PhaseTraverse, Crane: 0, Radius: gate, Waypoints: gates},
			{Name: "the shared gates", Kind: scenario.PhaseTraverse, Crane: 1, Radius: gate, Waypoints: gates},
			{Name: "the laydown pad", Kind: scenario.PhasePlace, Crane: 0, Target: pad, Radius: padRadius},
			{Name: "the laydown pad", Kind: scenario.PhasePlace, Crane: 1, Target: pad, Radius: padRadius},
		},
	}
}
