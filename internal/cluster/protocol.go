package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"

	"repro/internal/service"
	"repro/internal/vr"
)

// RunRequest asks a worker to simulate replications [RepLo, RepHi) of a
// job and stream back their power samples. It carries everything the
// sampling phase needs and nothing it does not: interval selection has
// already happened at the coordinator, and the stopping decision will
// happen there too.
type RunRequest struct {
	// Hash is the provenance hash of the circuit (SourceHash).
	Hash string `json:"hash"`
	// Source is the primary-input model; replication r draws from an
	// independent source seeded Seed+1+r.
	Source service.SourceSpec `json:"source"`
	// Seed is the job's base seed.
	Seed int64 `json:"seed"`
	// Mode is the power-observation mode ("" = general-delay).
	Mode string `json:"mode,omitempty"`
	// VR is the resolved variance-reduction plan (zero value = plain
	// estimation). The coordinator freezes it — including the
	// regression-estimated control-variate coefficient and covariate
	// mean — before the sampled phase, so every worker transforms its
	// samples exactly as the single-process estimator would;
	// encoding/json's shortest round-trip float rendering keeps the
	// coefficients lossless on the wire.
	VR vr.Plan `json:"vr,omitzero"`
	// Warmup is the per-replication hidden warm-up cycle count.
	Warmup int `json:"warmup"`
	// Interval is the independence interval selected by the coordinator.
	Interval int `json:"interval"`
	// RepLo and RepHi bound the replication range (half-open).
	RepLo int `json:"repLo"`
	RepHi int `json:"repHi"`
	// Rounds is the block cadence: samples stream in blocks of
	// Rounds*(RepHi-RepLo), round-major.
	Rounds int `json:"rounds"`
	// SkipBlocks fast-forwards the first blocks without emitting them —
	// how a reassigned worker resumes a dead worker's stream exactly
	// where the merged prefix ends.
	SkipBlocks int `json:"skipBlocks,omitempty"`
	// MaxBlocks bounds the stream (0 = until client disconnect). The
	// coordinator sets it from the job's sample budget so an orphaned
	// stream can never run unbounded.
	MaxBlocks int `json:"maxBlocks,omitempty"`
	// Workers bounds the worker-process goroutine pool for this range
	// (0 = GOMAXPROCS of the worker).
	Workers int `json:"workers,omitempty"`
	// Breakdown asks the worker to accumulate per-node transition counts
	// and attach each block's count delta (StreamBlock.Counts). Counting
	// never changes the samples, so a mixed run (some attempts with the
	// flag, some without) still merges bit-identical estimates.
	Breakdown bool `json:"breakdown,omitempty"`
	// BudgetRounds is the merge side's total round budget under
	// Breakdown ((MaxSamples - seeded samples) / PerRound; 0 =
	// unbounded): the final block's count delta is clipped to it exactly
	// as the coordinator's merger clips the rounds it consumes.
	BudgetRounds int `json:"budgetRounds,omitempty"`
}

// Validate rejects requests a worker could not run.
func (r RunRequest) Validate() error {
	switch {
	case r.Hash == "":
		return fmt.Errorf("cluster: run request missing circuit hash")
	case r.Warmup < 0:
		return fmt.Errorf("cluster: negative warmup %d", r.Warmup)
	case r.Interval < 0:
		return fmt.Errorf("cluster: negative interval %d", r.Interval)
	case r.RepLo < 0 || r.RepHi <= r.RepLo:
		return fmt.Errorf("cluster: bad replication range [%d, %d)", r.RepLo, r.RepHi)
	case r.Rounds < 1:
		return fmt.Errorf("cluster: block rounds %d must be >= 1", r.Rounds)
	case r.SkipBlocks < 0:
		return fmt.Errorf("cluster: negative skipBlocks %d", r.SkipBlocks)
	case r.MaxBlocks < 0:
		return fmt.Errorf("cluster: negative maxBlocks %d", r.MaxBlocks)
	case r.Workers < 0:
		return fmt.Errorf("cluster: negative workers %d", r.Workers)
	case r.BudgetRounds < 0:
		return fmt.Errorf("cluster: negative budgetRounds %d", r.BudgetRounds)
	}
	return r.VR.Validate()
}

// StreamHeader is the first line of a /v1/run response; the client
// checks it against the request before merging anything.
type StreamHeader struct {
	Lanes  int `json:"lanes"`
	Rounds int `json:"rounds"`
}

// StreamBlock is one round-block of samples: Rounds rounds, round-major
// with replications ascending within a round. encoding/json renders
// float64 in shortest round-trip form, so the wire format is lossless
// and the merged estimate stays bit-identical to a local run.
type StreamBlock struct {
	Index   int       `json:"b"`
	Samples []float64 `json:"s"`
	// Counts is the block's per-node transition-count delta (indexed by
	// NodeID, summed over the range's replications), present only when
	// the run requested a breakdown. Integers survive JSON exactly below
	// 2^53 — a bound no single block can reach — so folding the merged
	// blocks' deltas reproduces the in-process accumulator bit for bit.
	Counts []uint64 `json:"c,omitempty"`
}

// InstallRequest propagates a circuit to a worker that missed its hash.
type InstallRequest struct {
	Hash   string                `json:"hash"`
	Source service.CircuitSource `json:"source"`
}

// InstallResponse acknowledges an installed circuit.
type InstallResponse struct {
	Hash  string `json:"hash"`
	Gates int    `json:"gates"`
}

// SourceHash content-addresses a circuit's provenance. Builtin circuits
// hash their generator identity; uploads hash name, format and the full
// netlist text. Workers recompute the hash over the propagated
// provenance and refuse mismatches, so a hash uniquely names one frozen
// circuit across the whole cluster. The definition lives in the service
// package (service.HashSource) so the result cache shares the same
// circuit identity without importing this package.
func SourceHash(src service.CircuitSource) string {
	return service.HashSource(src)
}

// errorBody is the uniform JSON error shape, mirroring the service API.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON and readJSON mirror the service package's helpers (which
// are unexported there).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// maxBodyBytes bounds request bodies; netlist text dominates and the
// largest benchmark serializations are well under 1 MiB.
const maxBodyBytes = 8 << 20

func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}
