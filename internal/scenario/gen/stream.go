package gen

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"codsim/internal/scenario"
	"codsim/internal/trace"
)

// MaxConsecutiveRejects bounds how many candidates in a row a Stream will
// sample and discard before concluding the params are pathological (every
// candidate failing its dry-run) rather than unlucky, and erroring out
// instead of spinning forever.
const MaxConsecutiveRejects = 1000

// Stats tallies a Stream's work so campaign reports can show how many
// candidates the oracle vetoed — the acceptance bar is zero uncompletable
// specs *dispatched*, not zero sampled.
type Stats struct {
	Candidates    int64 // specs sampled from the seed stream
	StaticRejects int64 // vetoed by the free reachability pre-check
	OracleRejects int64 // vetoed by the dry-run verdict (live or cached)
	Emitted       int64 // certified specs handed to the caller
	OracleRuns    int64 // live dry-runs actually flown (cache misses)
	CacheHits     int64 // verdicts replayed from the persistent cache
	CacheMisses   int64 // cache consults that had to fly the dry-run
}

// Hooks lets a caller observe stream work for the telemetry plane. gen is
// a declared-deterministic package (codvet bans time.Now here), so the
// wall clock is injected: cmd wiring passes a monotonic-seconds func and
// metric sinks; the zero value disables everything. Candidate, CacheResult
// and OracleWall fire on the merge path — the goroutine calling Next — in
// candidate order; Clock is read around each live dry-run on whichever
// goroutine flies it, so it must be goroutine-safe.
type Hooks struct {
	// Clock returns monotonic seconds; nil disables oracle-wall timing.
	Clock func() float64
	// Candidate receives every sampled candidate's final verdict:
	// "emitted", "static-reject" or "oracle-reject".
	Candidate func(verdict string)
	// CacheResult receives one call per cache consult; true is a hit.
	CacheResult func(hit bool)
	// OracleWall receives each live dry-run's wall-clock seconds.
	OracleWall func(seconds float64)
}

// lookaheadPerLane sizes the certification ring: with Prefetch the lanes
// together run at most this many candidates per lane ahead of the one Next
// merges next. A rejected candidate's dry-run flies a whole stall window,
// about seven times a passing one's, so eight lets the other lanes keep
// certifying behind a slow head instead of waiting on it.
const lookaheadPerLane = 8

// Stream yields certified scenarios in candidate order. Candidate k's
// spec is Generate(SubSeed(seed, k), params); rejected candidates are
// skipped and sampling continues under the same sub-seed stream. One
// routine certifies a candidate — Generate, StaticCheck, cache lookup,
// oracle dry-run — and one routine, on the goroutine calling Next, merges
// its outcome: tallies, hooks, the cache append, the consecutive-reject
// guard, strictly in candidate order and only as far as the next emission.
// The emitted sequence, and every tally in Stats after n emissions, is
// therefore a pure function of (seed, params, oracle, n) whatever Parallel
// and Prefetch say.
//
// Prefetch off, Next certifies inline: no goroutine, nothing to Close.
// Prefetch on, Parallel lanes certify ahead of the merge. Each lane claims
// the next unclaimed candidate index, certifies it and deposits the
// outcome in a ring slot (index modulo the ring's depth); Next waits for
// the slot of the candidate it merges next, and merging it is what lets
// the lanes claim one more. There is no batch and no barrier: a lane that
// finishes takes the next candidate at once, and the lanes stop only when
// lookaheadPerLane × Parallel candidates are certified or in flight ahead
// of the merge.
//
// Not safe for concurrent use; a campaign owns one Stream and feeds the
// coordinator from it. A Stream with Prefetch enabled must be Closed.
type Stream struct {
	// Oracle certifies candidates; nil means DefaultOracle(params) — the
	// full static-check + expert dry-run. Set StaticOnly for free previews.
	Oracle Oracle
	// Parallel is the number of certification lanes Prefetch runs, and so
	// the bound on concurrent dry-runs; 0 means GOMAXPROCS. Without
	// Prefetch there are no lanes and it is not read.
	Parallel int
	// Prefetch certifies candidates on Parallel background lanes ahead of
	// Next, hiding oracle latency behind dispatch. Off, each Next
	// certifies what it needs on the caller's goroutine.
	Prefetch bool
	// Cache consults the persistent verdict store before every dry-run
	// and records fresh verdicts into it (unless the cache is ReadOnly);
	// nil disables. The cache must have been opened for this stream's
	// (seed, params) signature.
	Cache *Cache
	// Hooks observes the stream's work; the zero value is silent.
	Hooks Hooks

	seed    int64
	params  Params
	next    int64 // next candidate index to merge
	rejects int   // consecutive rejects since the last emission
	stats   Stats

	// The lanes, while Prefetch runs them. ring[k%len(ring)] receives
	// candidate k's outcome. claims holds the candidate indices the lanes
	// may take, in order: it starts with one ring's worth and gains index
	// k+len(ring) when k is merged, so it is the lanes' shared cursor and
	// the bound on their lookahead in one.
	ring   []chan candRec
	claims chan int64
	cancel context.CancelFunc
	lanes  sync.WaitGroup
}

// candRec is one candidate's certification outcome, computed on any
// goroutine; Stats mutate only when it is merged, in candidate order, on
// the goroutine calling Next.
type candRec struct {
	cand    int64
	spec    scenario.Spec
	hash    uint64  // SpecHash(spec), when the cache was consulted
	static  bool    // vetoed by the static pre-check (no dry-run)
	ok      bool    // dry-run verdict (live or cached) when !static
	cached  bool    // verdict replayed from Cache
	consult bool    // cache was consulted for this candidate
	wall    float64 // the live dry-run's seconds on Hooks.Clock
	line    []byte  // the live verdict's cache row, encoded
	genErr  error   // Generate fault
	err     error   // certification fault (hashing, oracle, cancellation)
}

// NewStream starts the certified-scenario stream for a campaign seed.
// Set Oracle/Parallel/Prefetch/Cache before the first Next if the
// defaults don't fit.
func NewStream(seed int64, params Params) *Stream {
	return &Stream{seed: seed, params: params}
}

// Stats returns the tallies so far: exactly the candidates up to and
// including the last emission's, never the lanes' lookahead.
func (s *Stream) Stats() Stats { return s.stats }

// Next returns the stream's next certified scenario and the candidate
// index it was sampled at. It blocks while the candidates up to it
// dry-run; a canceled ctx ends the wait (and, without Prefetch, the
// dry-run) with ctx's error. err is terminal: a generator fault, an
// oracle fault, ctx cancellation, or MaxConsecutiveRejects candidates
// vetoed back-to-back.
func (s *Stream) Next(ctx context.Context) (scenario.Spec, int64, error) {
	for {
		rec, err := s.take(ctx)
		if err != nil {
			return scenario.Spec{}, 0, err
		}
		emit, err := s.merge(&rec)
		if err != nil {
			return scenario.Spec{}, 0, err
		}
		if emit {
			return rec.spec, rec.cand, nil
		}
	}
}

// Close cancels the certification lanes and waits for them to return.
// What they certified beyond the last merged candidate is discarded:
// nothing of it reached Stats, the hooks or the cache, and being keyed
// work it is re-derivable. A Stream that never enabled Prefetch needs no
// Close, but Close is always safe.
func (s *Stream) Close() {
	if s.cancel == nil {
		return
	}
	s.cancel()
	s.lanes.Wait()
	s.ring, s.claims, s.cancel = nil, nil, nil
}

// take returns the outcome of the next candidate to merge: from its ring
// slot when lanes run, else certified here and now.
func (s *Stream) take(ctx context.Context) (candRec, error) {
	if err := ctx.Err(); err != nil {
		return candRec{}, err
	}
	cand := s.next
	if !s.Prefetch {
		s.next++
		return s.certify(ctx, cand), nil
	}
	if s.ring == nil {
		s.start(ctx)
	}
	depth := int64(len(s.ring))
	select {
	case rec := <-s.ring[cand%depth]:
		s.next++
		s.claims <- cand + depth // never blocks: a lane received cand from it
		return rec, nil
	case <-ctx.Done():
		return candRec{}, ctx.Err()
	}
}

// start launches the lanes at the merge cursor. They outlive the Next
// that started them, so they keep ctx's values but not its cancellation:
// a canceled Next stops waiting, Close stops the lanes.
func (s *Stream) start(ctx context.Context) {
	width := s.Parallel
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	depth := int64(lookaheadPerLane * width)
	s.ring = make([]chan candRec, depth)
	s.claims = make(chan int64, depth)
	for i := range s.ring {
		s.ring[i] = make(chan candRec, 1)
		s.claims <- s.next + int64(i)
	}
	lctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	s.cancel = cancel
	ring, claims := s.ring, s.claims
	for i := 0; i < width; i++ {
		s.lanes.Add(1)
		go func() {
			defer s.lanes.Done()
			for {
				select {
				case cand := <-claims:
					// Never blocks: the slot's last tenant, a ring earlier,
					// was merged before cand could be claimed.
					ring[cand%depth] <- s.certify(lctx, cand)
				case <-lctx.Done():
					return
				}
			}
		}()
	}
}

// certify computes candidate cand's outcome: Generate, StaticCheck, the
// cache lookup, and for a miss the oracle dry-run and the row that records
// it. It is the one producer of the jobs' answers (trace.Park): a hit
// whose row holds an answer parks it, audited for one row in auditOneIn;
// a miss parks the passing run its dry-run noted (trace.WithNote), keyed
// from the bytes the cache key was hashed from (marshaled once, only for a
// passing candidate, when there is no cache), and keeps it in the fresh
// row. It reads only what is fixed once the stream runs (seed, params,
// oracle, cache, hooks) — never Stats or the cursor — so lanes run it
// while the caller merges.
func (s *Stream) certify(ctx context.Context, cand int64) candRec {
	rec := candRec{cand: cand}
	spec, err := Generate(SubSeed(s.seed, cand), s.params)
	if err != nil {
		rec.genErr = err
		return rec
	}
	if StaticCheck(spec) != nil {
		rec.static = true
		return rec
	}
	rec.spec = spec
	budget := budgetFor(spec, s.params.OracleBudget)
	var raw []byte // the spec's MarshalSpec bytes: the cache and hand-off keys
	if s.Cache != nil {
		if raw, rec.err = scenario.MarshalSpec(spec); rec.err != nil {
			return rec
		}
		rec.hash, rec.consult = specHash(raw), true
		var ans trace.RunResult
		var answered bool
		if rec.ok, rec.cached, ans, answered = s.Cache.lookup(cand, rec.hash); rec.cached {
			if answered {
				ans.Scenario = spec.Name
				trace.Park(trace.KeyOf(raw), budget, ans, s.Cache.audit(cand, rec.hash))
			}
			return rec
		}
	}
	oracle := s.Oracle
	if oracle == nil {
		oracle = DefaultOracle(s.params)
	}
	var note trace.Note
	var began float64
	if s.Hooks.Clock != nil {
		began = s.Hooks.Clock()
	}
	rec.ok, rec.err = oracle(trace.WithNote(ctx, &note), spec)
	if s.Hooks.Clock != nil {
		rec.wall = s.Hooks.Clock() - began
	}
	if rec.err != nil {
		return rec
	}
	var ans *trace.RunResult
	if res, noted := note.For(budget); noted && rec.ok {
		if raw == nil { // no cache: the key's bytes, for a passing candidate only
			raw, err = scenario.MarshalSpec(spec)
		}
		if err == nil { // a spec that does not marshal is never parked: its job flies
			trace.Park(trace.KeyOf(raw), budget, res, "")
		}
		ans = &res
	}
	if rec.consult && !s.Cache.ReadOnly {
		rec.line, rec.err = s.Cache.encode(cand, rec.hash, rec.ok, ans)
	}
	return rec
}

// merge replays one candidate's outcome into the tallies, the hooks and
// the cache — the counts, order and error points of a serial walk over the
// candidates, whichever goroutine certified what — and reports whether the
// candidate is an emission. Fresh live verdicts are persisted here, on one
// goroutine, so the cache file's line order is deterministic too.
func (s *Stream) merge(rec *candRec) (emit bool, err error) {
	s.stats.Candidates++
	if rec.genErr != nil {
		return false, fmt.Errorf("gen: candidate %d: %w", rec.cand, rec.genErr)
	}
	if rec.static {
		s.stats.StaticRejects++
		return false, s.reject("static-reject")
	}
	if rec.consult {
		if rec.cached {
			s.stats.CacheHits++
		} else {
			s.stats.CacheMisses++
		}
		if s.Hooks.CacheResult != nil {
			s.Hooks.CacheResult(rec.cached)
		}
	}
	if rec.err != nil {
		return false, fmt.Errorf("gen: candidate %d oracle: %w", rec.cand, rec.err)
	}
	if !rec.cached {
		s.stats.OracleRuns++
		if s.Hooks.OracleWall != nil && s.Hooks.Clock != nil {
			s.Hooks.OracleWall(rec.wall)
		}
		if rec.consult {
			if err := s.Cache.add(rec.cand, rec.hash, rec.ok, rec.line); err != nil {
				return false, err
			}
		}
	}
	if !rec.ok {
		s.stats.OracleRejects++
		return false, s.reject("oracle-reject")
	}
	s.rejects = 0
	s.stats.Emitted++
	s.hookCandidate("emitted")
	return true, nil
}

// reject counts one vetoed candidate against the consecutive-reject guard.
func (s *Stream) reject(verdict string) error {
	s.hookCandidate(verdict)
	if s.rejects++; s.rejects >= MaxConsecutiveRejects {
		return fmt.Errorf("gen: %d candidates rejected back-to-back — params sample an uncompletable space", s.rejects)
	}
	return nil
}

func (s *Stream) hookCandidate(verdict string) {
	if s.Hooks.Candidate != nil {
		s.Hooks.Candidate(verdict)
	}
}
