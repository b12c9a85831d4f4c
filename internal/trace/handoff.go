package trace

import (
	"context"
	"crypto/sha256"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrStaleAnswer marks an audited answer whose job's flight differed from
// it: the answer came from a verdict-cache row that no longer says what
// the kernel flies (see Park). The coordinator that audits the answer
// wraps it.
var ErrStaleAnswer = errors.New("stale answer")

// handOffSlots is how many passing runs the hand-off holds at once. A
// certified campaign job is parked by its certification lane and taken by
// the coordinator that pulls the job; in between it waits at most in the
// stream's lookahead (eight candidates a lane, one lane a core by
// default) and the coordinator's feeder. The ring holds more than that
// with room to spare, so in a campaign no result is overwritten before
// its job takes it.
var handOffSlots = max(128, 9*runtime.GOMAXPROCS(0)+64)

// An Answer is a passing expert run parked for the job that would fly the
// same spec again (Park, Take).
type Answer struct {
	// Result is the run: its Scenario, terminal state, simulated seconds
	// and alarms.
	Result RunResult
	// Budget is the sim-time budget the run passed within.
	Budget float64
	// Audit, when not empty, names the verdict-cache row the answer came
	// from and marks it audited: its job flies anyway, and is held to
	// Result.
	Audit string
}

// Stands reports whether the answer stands for a RunSkill of its spec
// budgeted maxSim simulated seconds with skill: the expert profile without
// jitter and a budget at least the answer's. Such a flight would repeat
// the parked run tick for tick — the stall window only ever ends a run
// early, and a passed run ended before it could — so its result is the
// answer's.
func (a Answer) Stands(maxSim float64, skill SkillProfile) bool {
	return skill.IsZero() && skill.Jitter == 0 && maxSim >= a.Budget
}

// parkedRun is one answer waiting for its job, under the SHA-256 of the
// spec's MarshalSpec bytes.
type parkedRun struct {
	key    SpecKey
	answer Answer
	full   bool
}

// handOff is the process's ring of parked runs. It is process-wide, like
// a sync.Pool, because its two ends share no value: the answer is parked
// inside gen's certification lanes and the job is pulled by a dist
// coordinator's feeder, and neither knows the other is in the process.
// Parking overwrites the oldest slot, so results nobody takes (a
// lookahead past the end of a campaign) cost a fixed amount of memory.
var handOff = struct {
	mu     sync.Mutex
	slots  []parkedRun
	next   int          // slot the next park writes
	parked atomic.Int64 // occupied slots; read without mu by every Take
}{slots: make([]parkedRun, handOffSlots)}

// A SpecKey names a spec to the hand-off: the SHA-256 of its MarshalSpec
// bytes.
type SpecKey [sha256.Size]byte

// KeyOf is the SpecKey of a spec whose MarshalSpec bytes are raw, for a
// caller that has marshaled the spec already.
func KeyOf(raw []byte) SpecKey { return sha256.Sum256(raw) }

// Park offers res, a passing expert run within budget simulated seconds
// of the spec whose key is key, to the job that flies that spec next (see
// Take). gen's certification lane is its one caller: it parks the run its
// dry-run noted (WithNote), or the answer a verdict-cache row stored for
// one. A non-empty audit names that row and marks the answer audited
// (Answer.Audit).
func Park(key SpecKey, budget float64, res RunResult, audit string) {
	handOff.mu.Lock()
	p := &handOff.slots[handOff.next]
	if !p.full {
		handOff.parked.Add(1)
	}
	*p = parkedRun{key: key, answer: Answer{Result: res, Budget: budget, Audit: audit}, full: true}
	handOff.next = (handOff.next + 1) % len(handOff.slots)
	handOff.mu.Unlock()
}

// Take removes and returns the answer parked last for the spec whose
// MarshalSpec bytes are raw, if there is one; while nothing is parked it
// costs one atomic load and no hash. The taker decides whether the answer
// stands for the job's flight (Answer.Stands); an answer it does not use
// is gone, and the job flies. The newest answer is the one the job's own
// certification parked: an older one for the same spec, left by an
// earlier stream's lookahead that nobody took, must not shadow it, for
// only the job's own answer carries its row's audit.
func Take(raw []byte) (Answer, bool) {
	if handOff.parked.Load() == 0 {
		return Answer{}, false
	}
	key := KeyOf(raw)
	handOff.mu.Lock()
	defer handOff.mu.Unlock()
	n := len(handOff.slots)
	for back := 1; back <= n; back++ {
		p := &handOff.slots[(handOff.next-back+n)%n]
		if p.full && p.key == key {
			a := p.answer
			*p = parkedRun{}
			handOff.parked.Add(-1)
			return a, true
		}
	}
	return Answer{}, false
}

// A Note receives the passing run Completable flies while the note rides
// the dry-run's context (WithNote), so the caller that asked for the
// dry-run can keep it: gen's certification lane parks it for the job and
// stores it in the candidate's verdict-cache row. One dry-run at a time
// per Note.
type Note struct {
	budget float64
	res    RunResult
	full   bool
}

type noteKey struct{}

// WithNote returns ctx carrying n for the dry-runs flown under it.
func WithNote(ctx context.Context, n *Note) context.Context {
	return context.WithValue(ctx, noteKey{}, n)
}

// For returns the noted result if it passed within a budget of at most
// maxSim simulated seconds, so it stands for an expert flight budgeted
// maxSim.
func (n *Note) For(maxSim float64) (RunResult, bool) {
	if !n.full || n.budget > maxSim {
		return RunResult{}, false
	}
	return n.res, true
}
