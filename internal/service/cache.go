package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync"

	"repro/internal/obs"
	"repro/internal/sim"
)

// The result cache exploits the estimator's end-to-end determinism:
// identical (circuit content, input model, seed, canonicalized options)
// always produce a bit-identical Result, so a repeated submission can
// be answered instantly from the first run's result. The key hashes the
// circuit's *provenance* (HashSource) rather than its registry name —
// re-uploading the same netlist under the same name hits, replacing it
// with different text misses — plus the request knobs with defaults
// applied, so spelling a default explicitly still hits. Worker count is
// excluded: results are worker-independent by construction. The
// simulation backend is included even though estimates are
// backend-independent too — the result's engine/backend labels report
// what actually ran, and a cached compiled result must not answer a
// packed request (or vice versa) with the wrong provenance.

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

// cacheKeySpec is the canonical form of everything a Result depends on.
// Zero-valued request fields are expanded to their defaults before
// hashing, so requests that differ only in how they spell a default
// share a key. Options.Workers is deliberately absent: it tunes
// throughput, never results.
type cacheKeySpec struct {
	Hash string `json:"hash"`
	// Input model, normalized ("" kind means "iid", 0 probability means
	// 0.5 — see SourceSpec.Factory).
	Kind string  `json:"kind"`
	P    float64 `json:"p"`
	Rho  float64 `json:"rho,omitempty"`
	Seed int64   `json:"seed"`
	// Interval is the fixed independence interval, -1 when selection
	// runs.
	Interval int `json:"interval"`
	// Estimation knobs with defaults applied.
	RelErr        float64  `json:"relErr"`
	Confidence    float64  `json:"confidence"`
	Alpha         float64  `json:"alpha"`
	SeqLen        int      `json:"seqLen"`
	MaxInterval   int      `json:"maxInterval"`
	CheckEvery    int      `json:"checkEvery"`
	MaxSamples    int      `json:"maxSamples"`
	Warmup        int      `json:"warmup"`
	Replications  int      `json:"replications"`
	Reuse         bool     `json:"reuse"`
	Mode          string   `json:"mode"`
	Variance      string   `json:"variance,omitempty"`
	Beta          *float64 `json:"beta,omitempty"`
	ControlCycles int      `json:"controlCycles,omitempty"`
	// Breakdown widens the result (per-node attribution) without
	// changing the estimate, so it must key the cache: a scalar-only
	// result cannot answer a breakdown request. omitempty keeps every
	// pre-existing key byte-identical for breakdown-less requests.
	Breakdown bool `json:"breakdown,omitempty"`
}

// resultKey builds the cache key for a request whose circuit resolves
// to the given provenance.
func resultKey(src CircuitSource, req JobRequest) string {
	opts := req.Options.Options()
	spec := cacheKeySpec{
		Hash:          HashSource(src),
		Kind:          req.Source.Kind,
		P:             req.Source.P,
		Rho:           req.Source.Rho,
		Seed:          req.Seed,
		Interval:      -1,
		RelErr:        opts.Spec.RelErr,
		Confidence:    opts.Spec.Confidence,
		Alpha:         opts.Alpha,
		SeqLen:        opts.SeqLen,
		MaxInterval:   opts.MaxInterval,
		CheckEvery:    opts.CheckEvery,
		MaxSamples:    opts.MaxSamples,
		Warmup:        opts.WarmupCycles,
		Replications:  opts.Replications,
		Reuse:         opts.ReuseTestSamples,
		Mode:          opts.Mode.String(),
		Variance:      string(opts.Variance.Mode.Canonical()),
		Beta:          opts.Variance.BetaOverride,
		ControlCycles: opts.Variance.ControlCycles,
		Breakdown:     opts.Breakdown,
	}
	if spec.Kind == "" {
		spec.Kind = "iid"
	}
	if spec.P == 0 {
		spec.P = 0.5
	}
	if req.Interval != nil {
		spec.Interval = *req.Interval
	}
	if spec.Replications == 0 {
		spec.Replications = sim.MaxLanes
	}
	blob, err := json.Marshal(spec)
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
