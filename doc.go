// Package codsim reproduces "Experience of Building A High-Fidelity Mobile
// Crane Simulator with Cluster of Desktop Computers" (Huang, Bai, Tai, Gau
// — ICDCS 2001): a fully distributed interactive visual simulator built
// from commodity desktop computers connected by a transparent
// publish/subscribe layer, the Communication Backbone (CB).
//
// The supported programming surface is the cod package: a typed,
// context-aware SDK over the backbone. Modules create a cod.Node (one per
// "computer"), register plain Go structs as published or subscribed object
// classes with cod.Publish[T] and cod.Subscribe[T], and group nodes into a
// cod.Federation that shares a LAN and tears down on one Close. Start with
// examples/quickstart. For several processes over real sockets, run
// cmd/codbatch -serve workers under a -coordinator: typed cod classes on
// one UDP segment.
//
// The implementation lives under internal/, which is no longer a
// supported entry point:
//
//   - cb, lp, fom, wire, transport — the COD runtime: the CB's virtual
//     channels, the HLA-style initialization protocol, the LAN substrates
//     (simulated and real sockets), and the LP tick loop that is the
//     federation's clock (see package lp);
//   - render, displaysync — the software graphics pipeline and the
//     synchronization server behind the paper's 16 fps surround view;
//   - dynamics, collision, terrain, crane — the crane physics: carrier,
//     boom, hook pendulum, multi-level collision detection, terrain
//     following, and the safety envelope;
//   - motion, audio, dashboard, instructor, scenario, trace — the other
//     simulator modules of Fig. 3 plus the autopilot trainee;
//   - sim — the full eight-computer federation and the parallel batch
//     runner;
//   - dist — the distributed batch layer: a coordinator shards scenario
//     jobs over worker hosts through typed cod channels (dist.Grant /
//     dist.Result / dist.Ack / dist.Heartbeat), granting each to a free
//     worker slot, with re-dispatch on worker death, acknowledged
//     at-least-once results, and JSON-lines score analytics.
//
// # Scenarios
//
// Workloads are data: a scenario.Spec declares site geometry, a cargo
// set, a phase graph (drive / lift / traverse / place nodes the engine
// interprets), a deduction schedule, wind, and visibility. Eight specs
// ship in the library (classic and advanced exams, blind lift, heavy
// derate, windy lift, night precision placement, tandem beam lift,
// staggered two-crane yard), and specs serialize to JSON
// (scenario.LoadSpecDir reads a directory of them); sim.Config.Scenario
// loads any of them — or your own — into the full federation, trace.RunContext
// executes one headless (a budget around trace.Flight, whose Tick is the
// one headless coupling of pilot, dynamics and engine; every batch run,
// oracle dry-run, golden and alloc gate flies it), and sim.RunBatch runs
// N federations concurrently. cmd/codbatch is the CLI, locally or sharded
// across worker hosts with -serve/-coordinator, persisting per-run
// JSON-lines records with percentile, regression and trend reports
// (-trend dir/).
//
// Beyond the hand-built library, scenario/gen generates scenarios
// procedurally: gen.Generate samples seeded, deterministic Specs
// (randomized courses, cargo sets, tandem beams, wind and night
// regimes, one- or two-crane phase graphs) and a completability oracle
// — a static reachability check plus an expert-autopilot dry-run
// (trace.Completable, which only flies and reports) — certifies every
// emitted spec before it is dispatched; the certification lane that asked
// for the dry-run is the one producer of the answers that let the
// coordinator skip flying a certified job again (trace.Park). codbatch -campaign seed:count streams a certified
// campaign through the dist coordinator in windowed chunks
// (Coordinator.RunStream over a dist.JobSource), reproducible and
// diffable per seed+params; rejected candidates are resampled from the
// same seed stream and tallied, never dispatched.
//
// # Multi-crane federation and tandem lifts
//
// A Spec may declare several carriers (Spec.Cranes); each phase node
// carries a crane index and every crane walks its own sub-graph of the
// phase list with an independent cursor. A cargo declaring Hooks: 2 is a
// tandem load: the dynamics keep it grounded until two rigs latch it
// (both rigs share one dynamics.World), the scenario engine's tandem
// gate holds the first crane until its partner arrives, and the carried
// load then splits evenly between the cables. The federation scales with
// the declaration — sim.New spawns one dynamics, motion and autopilot
// participant per crane, all publishing on the same FOM classes (the
// paper's multiple-publishers-per-object-class rule) and demultiplexed
// by the CraneID attribute; absent on the wire means crane 0, so
// pre-multi-crane peers keep decoding. The autopilot
// takes a trace.SkillProfile (expert / intermediate / novice presets)
// parameterizing reaction lag, overshoot and slack, so batch sweeps
// yield realistic score distributions.
//
// The benchmarks in bench_test.go regenerate the paper's quantitative
// artifacts and BENCH_baseline.json records a reference run; README's
// "Paper figures" table names the test, benchmark or workload behind each
// figure.
package codsim
