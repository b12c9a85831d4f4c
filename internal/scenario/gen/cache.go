package gen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sync"

	"codsim/internal/fom"
	"codsim/internal/scenario"
	"codsim/internal/trace"
)

// SpecHash is the content hash the verdict cache keys on: FNV-1a 64 over
// the spec's canonical JSON (scenario.MarshalSpec, written field by field
// and held byte for byte to json.MarshalIndent, its tested reference;
// TestSpecHashPinned pins a few values). A cached verdict is only ever
// replayed when the candidate's regenerated spec bytes hash to the stored
// value, so generator changes invalidate stale entries automatically
// instead of replaying verdicts for specs that no longer exist.
func SpecHash(spec scenario.Spec) (uint64, error) {
	raw, err := scenario.MarshalSpec(spec)
	if err != nil {
		return 0, err
	}
	return specHash(raw), nil
}

// specHash is SpecHash of the spec whose MarshalSpec bytes are raw.
func specHash(raw []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range raw {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// auditOneIn sets the audit fraction of cached answers: a row whose
// SpecHash is a multiple of it parks its answer audited, so its job flies
// and is held to the row (trace.Park). One row in 32 keeps a real flight
// in every warm campaign without giving back much of the answers' gain.
const auditOneIn = 32

// cacheLine is one JSONL record of the persistent verdict cache.
type cacheLine struct {
	// Sig is the campaign's generation signature (gen.Sig: seed + params
	// hash, count-independent).
	Sig string `json:"sig"`
	// Cand is the candidate index within the signature's sub-seed stream.
	Cand int64 `json:"cand"`
	// Spec is the candidate's SpecHash, hex-encoded.
	Spec string `json:"spec"`
	// OK is the dry-run verdict: certified completable or vetoed.
	OK bool `json:"ok"`
	// Res is the expert's result on a passing row (a lineAnswer), stored
	// from the run the dry-run noted (trace.WithNote). Rejects, rows
	// written before answers were stored and rows of an oracle that flies
	// nothing have none, and their jobs fly.
	Res json.RawMessage `json:"res,omitempty"`
}

// lineAnswer is a row's answer as written: the dry-run's whole terminal
// scenario state, its simulated seconds and its alarms. Passed is the
// row's ok and Scenario the spec's name, so neither is stored. Every field
// is a pointer so that an answer missing one loads as no answer, not as a
// zero.
type lineAnswer struct {
	Phase      *fom.Phase `json:"phase"`
	Score      *float64   `json:"score"`
	Elapsed    *float64   `json:"elapsed"`
	Collisions *uint32    `json:"collisions"`
	Waypoint   *uint32    `json:"waypoint"`
	Message    *string    `json:"message"`
	PhaseIndex *uint32    `json:"phase_index"`
	CraneID    *int64     `json:"crane"`
	SimTime    *float64   `json:"sim_time"`
	Alarms     *uint32    `json:"alarms"`
}

// encodeAnswer is the Res of a row answered by res.
func encodeAnswer(res trace.RunResult) (json.RawMessage, error) {
	st := res.State
	return json.Marshal(lineAnswer{
		Phase: &st.Phase, Score: &st.Score, Elapsed: &st.Elapsed,
		Collisions: &st.Collisions, Waypoint: &st.Waypoint, Message: &st.Message,
		PhaseIndex: &st.PhaseIndex, CraneID: &st.CraneID,
		SimTime: &res.SimTime, Alarms: &res.Alarms,
	})
}

// decodeAnswer parses a row's Res. ok is false unless every field is
// there and the state is a completed run's, as a passing row's must be.
func decodeAnswer(raw json.RawMessage) (res trace.RunResult, ok bool) {
	var a lineAnswer
	if len(raw) == 0 || json.Unmarshal(raw, &a) != nil {
		return res, false
	}
	if a.Phase == nil || a.Score == nil || a.Elapsed == nil || a.Collisions == nil ||
		a.Waypoint == nil || a.Message == nil || a.PhaseIndex == nil || a.CraneID == nil ||
		a.SimTime == nil || a.Alarms == nil || *a.Phase != fom.PhaseComplete {
		return res, false
	}
	res.State = fom.ScenarioState{
		Phase: *a.Phase, Score: *a.Score, Elapsed: *a.Elapsed, Collisions: *a.Collisions,
		Waypoint: *a.Waypoint, Message: *a.Message, PhaseIndex: *a.PhaseIndex, CraneID: *a.CraneID,
	}
	res.SimTime, res.Alarms, res.Passed = *a.SimTime, *a.Alarms, true
	return res, true
}

// Cache is the persistent oracle-verdict store: an append-only JSONL file
// keyed by (generation signature, candidate index, spec-content hash).
// A Stream consults it before every dry-run and — unless ReadOnly —
// appends every fresh verdict, so re-running a campaign replays verdicts
// instead of re-flying dry-runs. A passing row also holds the expert's
// result. The Stream's certification lane, the one producer of answers,
// parks it for the job on a hit (trace.Park), as it parks the dry-run
// itself on a miss, so the job is answered instead of flown; one row
// answer in auditOneIn is parked audited and flown against the row. Lines whose signature doesn't match, or
// that don't parse (a crash mid-append truncates at most the final line),
// are skipped on load; the file heals on the next append.
//
// Loaded answers are kept without pointers, their messages in one byte
// arena, so a warm campaign's rows cost the collector nothing to scan.
//
// Lookup and append are goroutine-safe: a Stream's certification lanes
// read while its merge path appends.
type Cache struct {
	// ReadOnly consults existing verdicts without recording new ones. Use
	// it when the attached oracle is weaker than the dry-run (a static-only
	// preview): its verdicts must never poison the cache that strict
	// campaigns trust.
	ReadOnly bool

	sig  string
	path string

	mu      sync.Mutex
	m       map[cacheKey]verdict
	answers []answer
	msgs    []byte // the answers' messages, end to end
	file    *os.File
	w       *bufio.Writer
}

type cacheKey struct {
	cand int64
	spec uint64
}

// verdict is a loaded row: its dry-run verdict and, for a passing row
// that stored one, the index of its answer (-1 for none).
type verdict struct {
	ok  bool
	ans int32
}

// answer is a loaded row's expert result, compact: the message is
// msgs[msg : msg+msgLen] of its Cache.
type answer struct {
	score, elapsed, simTime       float64
	crane                         int64
	phase                         fom.Phase
	collisions, waypoint, phaseIx uint32
	alarms, msg, msgLen           uint32
}

// OpenCache loads (creating if absent) the verdict cache at path for the
// campaign signature Sig(seed, params). Entries recorded under other
// signatures stay in the file untouched — one cache file can serve many
// campaigns — they are simply not loaded.
func OpenCache(path string, seed int64, params Params) (*Cache, error) {
	sig := Sig(seed, params)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("gen: campaign cache %s: %w", path, err)
	}
	c := &Cache{sig: sig, path: path, file: f, m: make(map[cacheKey]verdict)}
	if err := c.load(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("gen: campaign cache %s: %w", path, err)
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil { // append from here
		f.Close()
		return nil, fmt.Errorf("gen: campaign cache %s: %w", path, err)
	}
	c.w = bufio.NewWriter(f)
	return c, nil
}

// load reads the rows of c's signature from r. Only a read fault or a
// line over 1 MiB fails it; a line that does not parse is skipped.
func (c *Cache) load(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var line cacheLine
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // corrupt line (torn write, hand edit): skip, don't fail
		}
		if line.Sig != c.sig {
			continue
		}
		var spec uint64
		if _, err := fmt.Sscanf(line.Spec, "%016x", &spec); err != nil {
			continue
		}
		var ans *trace.RunResult
		if res, ok := decodeAnswer(line.Res); ok && line.OK {
			ans = &res
		}
		c.put(cacheKey{cand: line.Cand, spec: spec}, line.OK, ans)
	}
	return sc.Err()
}

// put stores a row in memory, with res as its answer when not nil; c.mu
// is held or c not yet shared.
func (c *Cache) put(key cacheKey, ok bool, res *trace.RunResult) {
	v := verdict{ok: ok, ans: -1}
	if res != nil && uint64(len(c.msgs)+len(res.State.Message)) <= math.MaxUint32 {
		st := res.State
		v.ans = int32(len(c.answers))
		c.answers = append(c.answers, answer{
			score: st.Score, elapsed: st.Elapsed, simTime: res.SimTime, crane: st.CraneID,
			phase: st.Phase, collisions: st.Collisions, waypoint: st.Waypoint, phaseIx: st.PhaseIndex,
			alarms: res.Alarms, msg: uint32(len(c.msgs)), msgLen: uint32(len(st.Message)),
		})
		c.msgs = append(c.msgs, st.Message...)
	}
	c.m[key] = v
}

// lookup returns the cached verdict for a candidate, if present, and the
// row's answer if it holds one (Scenario left for the caller to name).
func (c *Cache) lookup(cand int64, spec uint64) (ok, found bool, res trace.RunResult, answered bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, found := c.m[cacheKey{cand: cand, spec: spec}]
	if !found || v.ans < 0 {
		return v.ok, found, res, false
	}
	a := &c.answers[v.ans]
	res.State = fom.ScenarioState{
		Phase: a.phase, Score: a.score, Elapsed: a.elapsed, Collisions: a.collisions,
		Waypoint: a.waypoint, Message: string(c.msgs[a.msg : a.msg+a.msgLen]),
		PhaseIndex: a.phaseIx, CraneID: a.crane,
	}
	res.SimTime, res.Alarms, res.Passed = a.simTime, a.alarms, true
	return v.ok, true, res, true
}

// audit is the audit name of an answered row, "" unless the row is one
// of the audited fraction.
func (c *Cache) audit(cand int64, spec uint64) string {
	if spec%auditOneIn != 0 {
		return ""
	}
	return fmt.Sprintf("campaign cache %s row (cand %d, spec %016x)", c.path, cand, spec)
}

// encode is a fresh verdict's JSONL line, with res as the row's answer
// when it is not nil. It reads only what is fixed once the cache is open,
// so a certification lane encodes its rows and the merge path only
// appends them. A result JSON cannot hold (a non-finite float) is left
// out and its job flies.
func (c *Cache) encode(cand int64, spec uint64, ok bool, res *trace.RunResult) ([]byte, error) {
	line := cacheLine{Sig: c.sig, Cand: cand, Spec: fmt.Sprintf("%016x", spec), OK: ok}
	if res != nil {
		line.Res, _ = encodeAnswer(*res)
	}
	raw, err := json.Marshal(line)
	return append(raw, '\n'), err
}

// add records a fresh dry-run verdict, encoded by encode (no-op when
// ReadOnly). The line is buffered; Close flushes. In memory the row keeps
// its verdict only: its answer is in the line, for the next OpenCache, as
// a stream never looks up a candidate it has recorded.
func (c *Cache) add(cand int64, spec uint64, ok bool, line []byte) error {
	if c.ReadOnly {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{cand: cand, spec: spec}
	if _, dup := c.m[key]; dup {
		return nil
	}
	c.put(key, ok, nil)
	if _, err := c.w.Write(line); err != nil {
		return fmt.Errorf("gen: campaign cache %s: %w", c.path, err)
	}
	return nil
}

// Close flushes buffered verdicts and releases the file and the loaded
// rows: a closed cache answers no lookup, so a finished campaign phase
// does not pin a map entry and an answer per candidate.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var err error
	if c.w != nil {
		err = c.w.Flush()
	}
	if cerr := c.file.Close(); err == nil {
		err = cerr
	}
	c.w, c.file, c.m, c.answers, c.msgs = nil, nil, nil, nil, nil
	return err
}
