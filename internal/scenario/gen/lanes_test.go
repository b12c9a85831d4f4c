package gen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"codsim/internal/scenario"
)

// heldOracle is a stub oracle whose dry-runs the test opens and closes by
// hand: every call reports the candidate it was given on started, then
// blocks until the test releases that candidate (or its context ends).
// The verdict is vetoOracle's, so it never depends on the choreography.
type heldOracle struct {
	cands   map[string]int64 // spec title → candidate index
	started chan int64

	mu    sync.Mutex
	gates map[int64]chan struct{}
}

// newHeldOracle indexes the first n candidates of the stream (seed, params)
// by title, which carries the candidate's sub-seed and so is unique.
func newHeldOracle(t *testing.T, seed int64, params Params, n int64) *heldOracle {
	t.Helper()
	h := &heldOracle{cands: make(map[string]int64), started: make(chan int64), gates: make(map[int64]chan struct{})}
	for k := int64(0); k < n; k++ {
		spec, err := Generate(SubSeed(seed, k), params)
		if err != nil || StaticCheck(spec) != nil {
			t.Fatalf("candidate %d does not reach the oracle (%v): pick another seed", k, err)
		}
		h.cands[spec.Title] = k
	}
	return h
}

func (h *heldOracle) gate(cand int64) chan struct{} {
	h.mu.Lock()
	defer h.mu.Unlock()
	g := h.gates[cand]
	if g == nil {
		g = make(chan struct{})
		h.gates[cand] = g
	}
	return g
}

func (h *heldOracle) release(cand int64) { close(h.gate(cand)) }

func (h *heldOracle) oracle(ctx context.Context, spec scenario.Spec) (bool, error) {
	cand, known := h.cands[spec.Title]
	if !known {
		return false, fmt.Errorf("candidate %q beyond the indexed range", spec.Title)
	}
	select {
	case h.started <- cand:
	case <-ctx.Done():
		return false, ctx.Err()
	}
	select {
	case <-h.gate(cand):
	case <-ctx.Done():
		return false, ctx.Err()
	}
	return vetoOracle(ctx, spec)
}

// streamLog is everything a campaign can observe of a stream: what it
// emitted where, what its hooks heard in which order, its tallies and the
// cache file it left behind.
type streamLog struct {
	emitted []string
	hooks   []string
	stats   Stats
	cache   string
}

func (l streamLog) equal(o streamLog) bool {
	return slices.Equal(l.emitted, o.emitted) && slices.Equal(l.hooks, o.hooks) &&
		l.stats == o.stats && l.cache == o.cache
}

// recordingHooks appends every hook call to log. Only the merge path calls
// these three, so no lock is needed; Clock runs on the lanes and returns a
// constant.
func recordingHooks(log *[]string) Hooks {
	return Hooks{
		Clock:       func() float64 { return 0 },
		Candidate:   func(v string) { *log = append(*log, v) },
		CacheResult: func(hit bool) { *log = append(*log, fmt.Sprint("cache-hit=", hit)) },
		OracleWall:  func(float64) { *log = append(*log, "oracle-wall") },
	}
}

// runPermuted pulls n emissions from a cache-backed stream whose dry-runs
// finish in an order drawn from perm: whenever every lane holds a dry-run
// open — or the lanes have run out of lookahead behind the oldest open
// one — one open dry-run, picked at random, is allowed to finish.
func runPermuted(t *testing.T, width int, prefetch bool, n int, perm int64) streamLog {
	t.Helper()
	const seed = 99
	params := DefaultParams()
	lanes, depth := 1, int64(1)
	if prefetch {
		lanes, depth = width, int64(lookaheadPerLane*width)
	}
	h := newHeldOracle(t, seed, params, 3*int64(n)+depth)
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	cache, err := OpenCache(path, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	var log streamLog
	s := NewStream(seed, params)
	s.Oracle, s.Parallel, s.Prefetch, s.Cache = h.oracle, width, prefetch, cache
	s.Hooks = recordingHooks(&log.hooks)

	done := make(chan error, 1)
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			spec, cand, err := s.Next(context.Background())
			if err != nil {
				done <- err
				return
			}
			log.emitted = append(log.emitted, fmt.Sprintf("%s@%d", spec.Title, cand))
		}
	}()

	rng := rand.New(rand.NewSource(perm))
	var open []int64 // dry-runs begun and not yet released
	oldest, last := int64(0), int64(-1)
	released := make(map[int64]bool)
	for running := true; running; {
		// The lanes are out of lookahead once the candidate a ring ahead of
		// the oldest unfinished one has begun.
		for len(open) > 0 && (len(open) >= lanes || last >= oldest+depth-1) {
			i := rng.Intn(len(open))
			h.release(open[i])
			released[open[i]] = true
			open = append(open[:i], open[i+1:]...)
			for released[oldest] {
				oldest++
			}
		}
		select {
		case cand := <-h.started:
			open = append(open, cand)
			last = max(last, cand)
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			running = false
		}
	}
	s.Close()
	log.stats = s.Stats()
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	log.cache = string(raw)
	return log
}

// The order dry-runs finish in is the one thing scheduling decides, and it
// must decide nothing a campaign can see: emissions, hook calls and the
// cache file's lines come out in candidate order whatever the lanes did.
func TestStreamCompletionOrderIsInvisible(t *testing.T) {
	const n = 30
	want := runPermuted(t, 1, false, n, 0)
	if want.stats.OracleRejects == 0 || want.cache == "" {
		t.Fatalf("reference run vetoed nothing or cached nothing: %+v", want.stats)
	}
	for _, width := range []int{2, 4} {
		for perm := int64(1); perm <= 4; perm++ {
			got := runPermuted(t, width, true, n, perm)
			if !got.equal(want) {
				t.Fatalf("width %d, completion order %d: observable behaviour differs from the serial stream\nserial %+v\ngot    %+v",
					width, perm, want, got)
			}
		}
	}
}

// There is no batch barrier: while one candidate's dry-run is held open the
// lanes go on to certify everything up to a ring ahead of it — and nothing
// beyond, or a slow head would let the lookahead grow without bound.
func TestStreamLanesRunAheadOfASlowHead(t *testing.T) {
	const (
		seed  = 99
		width = 2
		slow  = 3 // the candidate held open
		depth = lookaheadPerLane * width
	)
	h := newHeldOracle(t, seed, DefaultParams(), slow+3*depth)
	s := NewStream(seed, DefaultParams())
	s.Oracle, s.Parallel, s.Prefetch = h.oracle, width, true
	ctx, cancel := context.WithCancel(context.Background())
	consumer := make(chan struct{})
	go func() {
		defer close(consumer)
		for {
			if _, _, err := s.Next(ctx); err != nil {
				return
			}
		}
	}()
	defer func() {
		cancel()
		<-consumer
		s.Close()
	}()

	// Every dry-run but the slow one finishes as soon as it begins.
	begun := make(map[int64]bool)
	await := func(count int) {
		t.Helper()
		for len(begun) < count {
			cand := <-h.started
			if begun[cand] {
				t.Fatalf("candidate %d certified twice", cand)
			}
			begun[cand] = true
			if cand != slow {
				h.release(cand)
			}
		}
	}
	// With the slow candidate held open the lanes still begin everything up
	// to a ring ahead of it...
	await(slow + depth)
	for k := int64(0); k < slow+depth; k++ {
		if !begun[k] {
			t.Fatalf("%d candidates begun, but not candidate %d: %v", slow+depth, k, begun)
		}
	}
	// ...and then park: every index they may claim is claimed, and only
	// merging the slow candidate can issue another.
	if n := len(s.claims); n != 0 {
		t.Fatalf("%d claims still on offer with the lookahead used up", n)
	}
	select {
	case cand := <-h.started:
		t.Fatalf("candidate %d begun beyond the lookahead", cand)
	default:
	}
	h.release(slow)
	await(slow + 2*depth) // the ring turns over once the head is merged
}

// Faults surface where a serial walk over the candidates meets them,
// whatever ran ahead: same error, same tallies.
func TestStreamFaultsSurfaceAtTheSerialCandidate(t *testing.T) {
	boom := errors.New("rig cannot be built")
	cases := []struct {
		name   string
		params func(*Params)
		oracle Oracle
		check  func(t *testing.T, err error, st Stats)
	}{
		{
			name: "consecutive rejects",
			oracle: func(context.Context, scenario.Spec) (bool, error) {
				return false, nil
			},
			check: func(t *testing.T, err error, st Stats) {
				if err == nil || st.Candidates != MaxConsecutiveRejects || st.OracleRejects != MaxConsecutiveRejects {
					t.Fatalf("err %v after %+v, want the guard at candidate %d", err, st, MaxConsecutiveRejects)
				}
			},
		},
		{
			name:   "generate fault",
			params: func(p *Params) { p.MinGates = 0 },
			oracle: vetoOracle,
			check: func(t *testing.T, err error, st Stats) {
				if err == nil || st.Candidates != 1 || st.OracleRuns != 0 {
					t.Fatalf("err %v after %+v, want the generator's fault at candidate 0", err, st)
				}
			},
		},
		{
			name: "oracle fault",
			oracle: func(ctx context.Context, spec scenario.Spec) (bool, error) {
				if cand11, _ := Generate(SubSeed(99, 11), DefaultParams()); spec.Title == cand11.Title {
					return false, boom
				}
				return vetoOracle(ctx, spec)
			},
			check: func(t *testing.T, err error, st Stats) {
				if !errors.Is(err, boom) || st.Candidates != 12 {
					t.Fatalf("err %v after %+v, want the oracle's fault at candidate 11", err, st)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				emitted int
				err     string
				stats   Stats
			}
			run := func(width int, prefetch bool) outcome {
				params := DefaultParams()
				if tc.params != nil {
					tc.params(&params)
				}
				s := NewStream(99, params)
				s.Oracle, s.Parallel, s.Prefetch = tc.oracle, width, prefetch
				defer s.Close()
				var out outcome
				for {
					if _, _, err := s.Next(context.Background()); err != nil {
						out.err, out.stats = err.Error(), s.Stats()
						tc.check(t, err, out.stats)
						return out
					}
					out.emitted++
				}
			}
			want := run(1, false)
			for _, width := range []int{1, 4} {
				if got := run(width, true); got != want {
					t.Fatalf("width %d prefetching: %+v, serial %+v", width, got, want)
				}
			}
		})
	}
}

// A canceled Next gives up its wait with ctx's error and leaves the lanes
// to Close, which joins every one of them.
func TestStreamCancelThenCloseJoinsLanes(t *testing.T) {
	before := runtime.NumGoroutine()
	h := newHeldOracle(t, 99, DefaultParams(), 64)
	s := NewStream(99, DefaultParams())
	s.Oracle, s.Parallel, s.Prefetch = h.oracle, 4, true

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := s.Next(ctx)
		errc <- err
	}()
	// All four lanes hold a dry-run open, so Next is waiting on candidate 0.
	for i := 0; i < 4; i++ {
		<-h.started
	}
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("Next after cancel: %v, want context.Canceled", err)
	}
	if _, _, err := s.Next(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("second Next on the canceled context: %v", err)
	}
	if st := s.Stats(); st != (Stats{}) {
		t.Fatalf("tallies %+v after a Next that merged nothing", st)
	}
	s.Close()
	s.Close() // idempotent
	// Close has waited for the lanes' last statement; give the runtime until
	// the deadline to retire them.
	for deadline := time.Now().Add(10 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before the stream started", runtime.NumGoroutine(), before)
		}
	}
}

// Close discards what the lanes certified beyond the last merged candidate:
// the cache holds a line per merged live verdict and not one more.
func TestStreamCloseMidFlightPersistsNothingUnmerged(t *testing.T) {
	const (
		seed  = 99
		width = 2
		n     = 5
		depth = lookaheadPerLane * width
	)
	params := DefaultParams()
	h := newHeldOracle(t, seed, params, 64)
	path := filepath.Join(t.TempDir(), "verdicts.jsonl")
	cache, err := OpenCache(path, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(seed, params)
	s.Oracle, s.Parallel, s.Prefetch, s.Cache = h.oracle, width, true, cache

	lastc := make(chan int64, 1)
	go func() {
		var last int64
		for i := 0; i < n; i++ {
			_, cand, err := s.Next(context.Background())
			if err != nil {
				t.Error(err)
				break
			}
			last = cand
		}
		lastc <- last
	}()
	// Let every dry-run finish at once, until the consumer has its n
	// emissions and the lanes have certified a full ring beyond them.
	last, top := int64(-1), int64(-1)
	for last < 0 || top < last+depth {
		select {
		case cand := <-h.started:
			h.release(cand)
			top = max(top, cand)
		case last = <-lastc:
		}
	}
	s.Close()
	st := s.Stats()
	if st.Candidates != last+1 || st.Emitted != n {
		t.Fatalf("tallies %+v, want them to stop at candidate %d", st, last)
	}
	if err := cache.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := OpenCache(path, seed, params)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	if got := int64(reopened.Len()); got != st.OracleRuns || got != last+1 {
		t.Fatalf("cache holds %d verdicts, want the %d merged ones (candidates 0..%d)", got, st.OracleRuns, last)
	}
}
