package trace

import (
	"context"
	"crypto/sha256"
	"runtime"
	"sync"
	"sync/atomic"

	"codsim/internal/scenario"
)

// handOffSlots is how many passing dry-runs the hand-off holds at once.
// A certified campaign job is parked by its oracle lane and taken by the
// worker slot that flies it; in between it waits at most in the stream's
// lookahead (eight candidates a lane, one lane a core by default), the
// coordinator's window of 64 open jobs and one slot a core. The ring holds
// more than that sum, so in a local campaign no result is overwritten
// before its job takes it.
var handOffSlots = max(128, 9*runtime.GOMAXPROCS(0)+64)

// parkedRun is one passing dry-run waiting for its job: the SHA-256 of
// the spec's MarshalSpec bytes, the budget it passed within and its result.
type parkedRun struct {
	key    [sha256.Size]byte
	budget float64
	res    RunResult
	full   bool
}

// handOff is the process's ring of parked dry-runs. It is process-wide,
// like a sync.Pool, because its two ends share no value: the oracle runs
// inside gen's certification lanes and the job inside a dist worker slot,
// and neither knows the other is in the process. Parking overwrites the
// oldest slot, so results nobody takes (a multi-host coordinator's, a
// lookahead past the end of a campaign) cost a fixed amount of memory.
var handOff = struct {
	mu     sync.Mutex
	slots  []parkedRun
	next   int          // slot the next park writes
	parked atomic.Int64 // occupied slots; read without mu by every RunSkill
	taken  atomic.Int64 // cumulative takes, for HandOffs
}{slots: make([]parkedRun, handOffSlots)}

// HandOffs is how many runs the package-level RunSkill has answered with
// a parked Completable dry-run instead of flying, since the process
// started.
func HandOffs() int64 { return handOff.taken.Load() }

// specKey is the hand-off key of a spec; ok is false for a spec that does
// not marshal (it is then never parked, and always flown).
func specKey(spec scenario.Spec) (key [sha256.Size]byte, ok bool) {
	b, err := scenario.MarshalSpec(spec)
	if err != nil {
		return key, false
	}
	return sha256.Sum256(b), true
}

// park offers a passing dry-run of spec, flown within budget, to the next
// RunSkill of the same spec.
func park(spec scenario.Spec, budget float64, res RunResult) {
	key, ok := specKey(spec)
	if !ok {
		return
	}
	handOff.mu.Lock()
	p := &handOff.slots[handOff.next]
	if !p.full {
		handOff.parked.Add(1)
	}
	*p = parkedRun{key: key, budget: budget, res: res, full: true}
	handOff.next = (handOff.next + 1) % len(handOff.slots)
	handOff.mu.Unlock()
}

// take removes and returns the parked result the RunSkill call may stand
// on under RunSkill's rule, if there is one. Flying such a call would
// repeat the dry-run tick for tick — the stall window only ever ends a run
// early, and a passed run ended before it could — so its result is the
// parked one.
func take(ctx context.Context, spec scenario.Spec, maxSim float64, skill SkillProfile) (RunResult, bool) {
	if handOff.parked.Load() == 0 || !skill.IsZero() || skill.Jitter != 0 || ctx.Err() != nil {
		return RunResult{}, false
	}
	key, ok := specKey(spec)
	if !ok {
		return RunResult{}, false
	}
	handOff.mu.Lock()
	defer handOff.mu.Unlock()
	for i := range handOff.slots {
		p := &handOff.slots[i]
		if p.full && p.key == key && maxSim >= p.budget {
			res := p.res
			*p = parkedRun{}
			handOff.parked.Add(-1)
			handOff.taken.Add(1)
			return res, true
		}
	}
	return RunResult{}, false
}
