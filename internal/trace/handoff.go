package trace

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"codsim/internal/scenario"
)

// ErrStaleAnswer marks an audited hand-off whose flight differed from the
// parked answer: the answer came from a verdict-cache row that no longer
// says what the kernel flies (see Park).
var ErrStaleAnswer = errors.New("stale answer")

// handOffSlots is how many passing runs the hand-off holds at once. A
// certified campaign job is parked by its certification lane and taken by
// the worker slot that flies it; in between it waits at most in the
// stream's lookahead (eight candidates a lane, one lane a core by
// default), the coordinator's window of 64 open jobs and one slot a core.
// The ring holds more than that sum, so in a local campaign no result is
// overwritten before its job takes it.
var handOffSlots = max(128, 9*runtime.GOMAXPROCS(0)+64)

// parkedRun is one passing run waiting for its job: the SHA-256 of the
// spec's MarshalSpec bytes, the budget it passed within, its result and,
// for an audited answer, the name of the row it came from.
type parkedRun struct {
	key    SpecKey
	budget float64
	res    RunResult
	audit  string
	full   bool
}

// handOff is the process's ring of parked runs. It is process-wide, like
// a sync.Pool, because its two ends share no value: the answer is parked
// inside gen's certification lanes and the job runs inside a dist worker
// slot, and neither knows the other is in the process. Parking overwrites
// the oldest slot, so results nobody takes (a multi-host coordinator's, a
// lookahead past the end of a campaign) cost a fixed amount of memory.
var handOff = struct {
	mu      sync.Mutex
	slots   []parkedRun
	next    int          // slot the next park writes
	parked  atomic.Int64 // occupied slots; read without mu by every RunSkill
	taken   atomic.Int64 // cumulative answered takes, for HandOffs
	audited atomic.Int64 // cumulative audited takes, for Audits
}{slots: make([]parkedRun, handOffSlots)}

// HandOffs is how many runs the package-level RunSkill has answered with
// a parked result instead of flying, since the process started.
func HandOffs() int64 { return handOff.taken.Load() }

// Audits is how many runs the package-level RunSkill has flown to check
// an audited answer against (see Park), since the process started.
func Audits() int64 { return handOff.audited.Load() }

// A SpecKey names a spec to the hand-off: the SHA-256 of its MarshalSpec
// bytes.
type SpecKey [sha256.Size]byte

// KeyOf is the SpecKey of a spec whose MarshalSpec bytes are raw, for a
// caller that has marshaled the spec already.
func KeyOf(raw []byte) SpecKey { return sha256.Sum256(raw) }

// specKey is the hand-off key of a spec; ok is false for a spec that does
// not marshal (it is then never parked, and always flown).
func specKey(spec scenario.Spec) (key SpecKey, ok bool) {
	b, err := scenario.MarshalSpec(spec)
	if err != nil {
		return key, false
	}
	return KeyOf(b), true
}

// Park offers res, a passing expert run within budget simulated seconds
// of the spec whose key is key, to the next package-level RunSkill of that
// spec (see RunSkill for when one takes it). Completable parks its own
// passing dry-runs; gen's certification lane parks the answer a
// verdict-cache row stored for one. A non-empty audit names that row and
// marks the answer audited: the RunSkill that takes it flies the spec
// anyway and fails with ErrStaleAnswer, naming the row, if the flight
// differs from res.
func Park(key SpecKey, budget float64, res RunResult, audit string) {
	handOff.mu.Lock()
	p := &handOff.slots[handOff.next]
	if !p.full {
		handOff.parked.Add(1)
	}
	*p = parkedRun{key: key, budget: budget, res: res, audit: audit, full: true}
	handOff.next = (handOff.next + 1) % len(handOff.slots)
	handOff.mu.Unlock()
}

// take removes and returns the parked run the RunSkill call may stand on
// under RunSkill's rule, if there is one. Flying such a call would repeat
// the parked run tick for tick — the stall window only ever ends a run
// early, and a passed run ended before it could — so its result is the
// parked one.
func take(ctx context.Context, spec scenario.Spec, maxSim float64, skill SkillProfile) (parkedRun, bool) {
	if handOff.parked.Load() == 0 || !skill.IsZero() || skill.Jitter != 0 || ctx.Err() != nil {
		return parkedRun{}, false
	}
	key, ok := specKey(spec)
	if !ok {
		return parkedRun{}, false
	}
	handOff.mu.Lock()
	defer handOff.mu.Unlock()
	for i := range handOff.slots {
		p := &handOff.slots[i]
		if p.full && p.key == key && maxSim >= p.budget {
			run := *p
			*p = parkedRun{}
			handOff.parked.Add(-1)
			if run.audit != "" {
				handOff.audited.Add(1)
			} else {
				handOff.taken.Add(1)
			}
			return run, true
		}
	}
	return parkedRun{}, false
}

// check compares the flight of an audited job with the answer it was
// parked with.
func (p *parkedRun) check(res RunResult, err error) error {
	if err != nil {
		return fmt.Errorf("trace: %s is stale: its flight failed (%w): %w", p.audit, err, ErrStaleAnswer)
	}
	if res == p.res {
		return nil
	}
	var diff []string
	field := func(name string, flown, row any) {
		if flown != row {
			diff = append(diff, fmt.Sprintf("%s %v (row %v)", name, flown, row))
		}
	}
	fs, rs := res.State, p.res.State
	field("scenario", res.Scenario, p.res.Scenario)
	field("phase", fs.Phase, rs.Phase)
	field("score", fs.Score, rs.Score)
	field("elapsed", fs.Elapsed, rs.Elapsed)
	field("collisions", fs.Collisions, rs.Collisions)
	field("waypoint", fs.Waypoint, rs.Waypoint)
	field("message", fs.Message, rs.Message)
	field("phase index", fs.PhaseIndex, rs.PhaseIndex)
	field("crane", fs.CraneID, rs.CraneID)
	field("sim-seconds", res.SimTime, p.res.SimTime)
	field("passed", res.Passed, p.res.Passed)
	field("alarms", res.Alarms, p.res.Alarms)
	return fmt.Errorf("trace: %s is stale: the flight gave %s: %w", p.audit, strings.Join(diff, ", "), ErrStaleAnswer)
}

// A Note receives the result Completable parks while the note rides the
// dry-run's context (WithNote), so the caller that asked for the dry-run
// can keep what it parked: gen's certification lane stores it in the
// candidate's verdict-cache row. One dry-run at a time per Note.
type Note struct {
	key    SpecKey
	budget float64
	res    RunResult
	full   bool
}

type noteKey struct{}

// WithNote returns ctx carrying n for the dry-runs flown under it.
func WithNote(ctx context.Context, n *Note) context.Context {
	return context.WithValue(ctx, noteKey{}, n)
}

// For returns the noted result if it was parked for the spec whose key is
// key within a budget of at most maxSim simulated seconds, so a RunSkill
// budgeted maxSim would have taken it.
func (n *Note) For(key SpecKey, maxSim float64) (RunResult, bool) {
	if !n.full || n.key != key || n.budget > maxSim {
		return RunResult{}, false
	}
	return n.res, true
}
