package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"

	"repro/internal/core"
)

// The result cache exploits the estimator's end-to-end determinism:
// identical (circuit content, input model, seed, options) always
// produce a bit-identical Result, so a repeated submission can be
// answered instantly from an earlier run's result while a job holding
// it is still in the finished-job window. The key hashes the circuit's
// *provenance* (HashSource) rather than its registry name —
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

// CacheStats is a snapshot of the result cache, which is the
// finished-job window's index by result key (see Manager).
type CacheStats struct {
	// Hits counts submissions answered from a previous identical run.
	Hits uint64 `json:"hits"`
	// Misses counts submissions that had to run.
	Misses uint64 `json:"misses"`
	// Entries is the current number of indexed results: the distinct
	// result keys of the done jobs in the finished-job window.
	Entries int `json:"entries"`
}
