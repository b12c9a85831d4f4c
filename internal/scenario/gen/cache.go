package gen

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"codsim/internal/scenario"
)

// SpecHash is the content hash the verdict cache keys on: FNV-1a 64 over
// the spec's canonical JSON (scenario.MarshalSpec). A cached verdict is
// only ever replayed when the candidate's regenerated spec bytes hash to
// the stored value, so generator changes invalidate stale entries
// automatically instead of replaying verdicts for specs that no longer
// exist.
func SpecHash(spec scenario.Spec) (uint64, error) {
	raw, err := scenario.MarshalSpec(spec)
	if err != nil {
		return 0, err
	}
	h := uint64(14695981039346656037)
	for _, b := range raw {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h, nil
}

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
}

// Cache is the persistent oracle-verdict store: an append-only JSONL file
// keyed by (generation signature, candidate index, spec-content hash).
// A Stream consults it before every dry-run and — unless ReadOnly —
// appends every fresh verdict, so re-running a campaign replays verdicts
// instead of re-flying dry-runs. Lines whose signature doesn't match, or
// that don't parse (a crash mid-append truncates at most the final line),
// are skipped on load; the file heals on the next append.
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

	mu   sync.Mutex
	m    map[cacheKey]bool
	file *os.File
	w    *bufio.Writer
}

type cacheKey struct {
	cand int64
	spec uint64
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
	c := &Cache{sig: sig, path: path, file: f, m: make(map[cacheKey]bool)}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var line cacheLine
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue // corrupt line (torn write, hand edit): skip, don't fail
		}
		if line.Sig != sig {
			continue
		}
		var spec uint64
		if _, err := fmt.Sscanf(line.Spec, "%016x", &spec); err != nil {
			continue
		}
		c.m[cacheKey{cand: line.Cand, spec: spec}] = line.OK
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, fmt.Errorf("gen: campaign cache %s: %w", path, err)
	}
	if _, err := f.Seek(0, 2); err != nil { // io.SeekEnd: append from here
		f.Close()
		return nil, fmt.Errorf("gen: campaign cache %s: %w", path, err)
	}
	c.w = bufio.NewWriter(f)
	return c, nil
}

// Len reports how many verdicts are loaded for this cache's signature.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// lookup returns the cached verdict for a candidate, if present.
func (c *Cache) lookup(cand int64, spec uint64) (ok, found bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ok, found = c.m[cacheKey{cand: cand, spec: spec}]
	return ok, found
}

// add records a fresh dry-run verdict (no-op when ReadOnly). The line is
// buffered; Close flushes.
func (c *Cache) add(cand int64, spec uint64, ok bool) error {
	if c.ReadOnly {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	key := cacheKey{cand: cand, spec: spec}
	if _, dup := c.m[key]; dup {
		return nil
	}
	c.m[key] = ok
	raw, err := json.Marshal(cacheLine{Sig: c.sig, Cand: cand, Spec: fmt.Sprintf("%016x", spec), OK: ok})
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	if _, err := c.w.Write(raw); err != nil {
		return fmt.Errorf("gen: campaign cache %s: %w", c.path, err)
	}
	return nil
}

// Close flushes buffered verdicts and releases the file and the loaded
// verdicts: a closed cache answers no lookup, so a finished campaign phase
// does not pin a map entry per candidate.
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
	c.w, c.file, c.m = nil, nil, nil
	return err
}
