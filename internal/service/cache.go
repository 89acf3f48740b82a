package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// The result cache exploits the estimator's end-to-end determinism:
// identical (circuit content, input model, seed, options) always
// produce a bit-identical Result, so a repeated submission can be
// answered instantly from the first run's result. The key hashes the
// circuit's *provenance* (HashSource) rather than its registry name —
// re-uploading the same netlist under the same name hits, replacing it
// with different text misses — plus the request with its defaults
// applied, so spelling a default explicitly still hits.

// HashSource content-addresses a circuit's provenance. Builtin circuits
// hash their generator identity; uploads hash name, format and the full
// netlist text. This is the circuit-identity half of the cluster wire
// protocol (workers recompute it over propagated provenance and refuse
// mismatches) and of the result-cache key.
func HashSource(src CircuitSource) string {
	h := sha256.New()
	if src.Builtin != "" {
		io.WriteString(h, "builtin\x00")
		io.WriteString(h, src.Builtin)
	} else {
		io.WriteString(h, "upload\x00")
		io.WriteString(h, src.Name)
		io.WriteString(h, "\x00")
		io.WriteString(h, src.Format)
		io.WriteString(h, "\x00")
		io.WriteString(h, src.Text)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// resultKey builds the cache key for a request whose circuit resolves
// to the given provenance. The options enter as the expanded
// core.Options, whose JSON tags name exactly the fields that can change
// a Result: result-invariant knobs such as Workers are tagged "-" and so
// stay out, and the two function-valued fields key by Name().
func resultKey(src CircuitSource, req JobRequest) string {
	opts := req.Options.Options()
	source := req.Source
	if source.Kind == "" {
		source.Kind = "iid"
	}
	if source.P == 0 {
		source.P = 0.5
	}
	interval := -1
	if req.Interval != nil {
		interval = *req.Interval
	}
	blob, err := json.Marshal(struct {
		Hash      string       `json:"hash"`
		Source    SourceSpec   `json:"source"`
		Seed      int64        `json:"seed"`
		Interval  int          `json:"interval"`
		Options   core.Options `json:"options"`
		Criterion string       `json:"criterion"`
		Test      string       `json:"test"`
	}{HashSource(src), source, req.Seed, interval, opts, opts.NewCriterion(opts.Spec).Name(), opts.Test.Name()})
	if err != nil {
		return ""
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// CacheStats is a snapshot of the result cache.
type CacheStats struct {
	// Hits counts submissions answered from a previous identical run.
	Hits uint64 `json:"hits"`
	// Misses counts submissions that had to run.
	Misses uint64 `json:"misses"`
	// Entries is the current number of cached results.
	Entries int `json:"entries"`
}

// resultCache is a bounded FIFO map of finished results keyed by
// resultKey. FIFO (not LRU) keeps eviction trivial; the cache exists to
// absorb repeated submissions, which arrive close together in practice.
// Hit/miss counts live in registry counters (the manager always hands
// in real handles) so /v1/stats and /metrics read the same cells.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	results map[string]ResultView
	order   []string
	hits    *obs.Counter
	misses  *obs.Counter
}

func newResultCache(capacity int, hits, misses *obs.Counter) *resultCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &resultCache{cap: capacity, results: make(map[string]ResultView), hits: hits, misses: misses}
}

// get returns a copy of the cached result, marked Cached, and counts
// the hit/miss.
func (c *resultCache) get(key string) (*ResultView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rv, ok := c.results[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.hits.Inc()
	rv.Cached = true
	return &rv, true
}

// put stores a copy of a finished result (its Cached flag cleared — the
// flag marks served copies, not the original run — and its trace
// summary dropped: the trace belongs to the job that ran, and a served
// copy gets its own).
func (c *resultCache) put(key string, rv ResultView) {
	rv.Cached = false
	rv.Trace = nil
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.results[key]; !ok {
		c.order = append(c.order, key)
		for len(c.order) > c.cap {
			delete(c.results, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.results[key] = rv
}

// stats snapshots the counters.
func (c *resultCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits.Value(), Misses: c.misses.Value(), Entries: len(c.results)}
}
