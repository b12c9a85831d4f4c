// Package trace flies the simulator headless. Its closed-loop Autopilot
// stands in for the human trainee — it drives the carrier to the test
// ground, works the boom through the licensing trajectory of Fig. 9, and
// sets the cargo back down, providing a repeatable workload for the
// scoring tests and the benchmarks.
//
// A Flight is a scenario's rig (scenario.NewRig) with one Autopilot per
// crane, and Flight.Tick is the one place the headless coupling — pilot,
// dynamics step, engine judgement, 60 times a simulated second — is
// written. Runner.RunSkill (and RunContext, Completable, codbatch, every
// dist worker slot and the certification oracle through it) is a budget,
// a stall window and a context poll around that tick; the trajectory
// golden, the 0-alloc gates, the exam example and TestCarelessRunFailsExam
// fly the same Flight. The federation in package sim is not a second copy
// of it: its LPs make the same three calls, but through the backbone at
// 60/50/30 Hz, and share only the rig constructor.
//
// A certified campaign flies each job at most once. Completable, the
// oracle's dry-run, only flies and reports: a Note on its context
// (WithNote) receives a passing run. The one producer of answers is gen's
// certification lane. Cold, it parks the run its dry-run noted (Park),
// keyed by the SHA-256 of the spec's MarshalSpec bytes; warm, where no
// dry-run flies, it parks the answer the candidate's verdict-cache row
// stored from that dry-run instead. The dist coordinator that pulls the
// certified job takes the answer (Take) and, when every worker of its pool
// would fly exactly the parked run — the expert profile without jitter,
// headless, a budget at least the answer's (Answer.Stands) — records the
// job from it without dispatching it. One row answer in 32 is parked
// audited: its job is dispatched and flown anyway, and the coordinator
// fails it with ErrStaleAnswer, naming the row, if the flight differs from
// the answer, so a cache left stale by a kernel change fails a strict
// campaign. RunSkill and Completable always fly and read no process-wide
// state; the ring is only the channel from the certification lane to the
// coordinator, and costs one atomic load a job while nothing is parked.
package trace
