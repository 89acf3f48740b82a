package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/vr"
)

// RunRequest asks a worker to simulate replications [RepLo, RepHi) of a
// job and stream back their power samples. It carries everything the
// sampling phase needs and nothing it does not: interval selection has
// already happened in the coordinator's process, and the stopping
// decision will happen there too.
type RunRequest struct {
	// Hash is the provenance hash of the circuit (service.HashSource).
	Hash string `json:"hash"`
	// Source is the primary-input model; replication r draws from an
	// independent source seeded Seed+1+r.
	Source service.SourceSpec `json:"source"`
	// Seed is the job's base seed.
	Seed int64 `json:"seed"`
	// Options is the job's option spec. The worker expands it with
	// Options(), exactly as the coordinator does, so the two run the
	// same power mode, warm-up, goroutine pool and breakdown setting.
	// Counting for a breakdown never changes the samples.
	Options service.OptionsSpec `json:"options"`
	// VR is the resolved variance-reduction plan (zero value = plain
	// estimation). The coordinator freezes it — including the
	// regression-estimated control-variate coefficient and covariate
	// mean — before the sampled phase, so every worker transforms its
	// samples exactly as the single-process estimator would;
	// encoding/json's shortest round-trip float rendering keeps the
	// coefficients lossless on the wire.
	VR vr.Plan `json:"vr,omitzero"`
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
	// BudgetRounds is the merge side's total round budget under
	// options.breakdown (core.Tail.BudgetRounds; 0 = unbounded): the
	// final block's toggle delta (core.ReplicationBlock.Toggles) is
	// clipped to it exactly as the coordinator's merger clips the rounds
	// it consumes.
	BudgetRounds int `json:"budgetRounds,omitempty"`
}

// Validate rejects requests a worker could not run, and streams whose
// shape the job's own options do not allow: the replication range must
// lie inside the job's replication space and the block cadence must not
// exceed the one the coordinator's merger sends (core.BlockRounds). A
// worker allocates the range's sessions and rounds × lanes samples
// before the first block, so these bounds, with the job's own size
// limits, are what keep one request from exhausting its memory. The
// interval must not exceed service.MaxFixedInterval, and neither
// skipBlocks nor maxBlocks may exceed the job's block budget
// (core.MaxBlocks, the cap the coordinator sends), nor skipBlocks a
// nonzero maxBlocks: together they bound the cycles a worker
// fast-forwards before its first block.
func (r RunRequest) Validate() error {
	switch {
	case r.Hash == "":
		return fmt.Errorf("cluster: run request missing circuit hash")
	case r.Interval < 0:
		return fmt.Errorf("cluster: negative interval %d", r.Interval)
	case r.Interval > service.MaxFixedInterval:
		return fmt.Errorf("cluster: interval %d above the limit of %d", r.Interval, service.MaxFixedInterval)
	case r.RepLo < 0 || r.RepHi <= r.RepLo:
		return fmt.Errorf("cluster: bad replication range [%d, %d)", r.RepLo, r.RepHi)
	case r.Rounds < 1:
		return fmt.Errorf("cluster: block rounds %d must be >= 1", r.Rounds)
	case r.SkipBlocks < 0:
		return fmt.Errorf("cluster: negative skipBlocks %d", r.SkipBlocks)
	case r.MaxBlocks < 0:
		return fmt.Errorf("cluster: negative maxBlocks %d", r.MaxBlocks)
	case r.BudgetRounds < 0:
		return fmt.Errorf("cluster: negative budgetRounds %d", r.BudgetRounds)
	}
	if err := r.Options.Validate(); err != nil {
		return err
	}
	opts := r.Options.Options()
	if r.RepHi > opts.Replications {
		return fmt.Errorf("cluster: replication range [%d, %d) outside the job's %d replications", r.RepLo, r.RepHi, opts.Replications)
	}
	if cadence := core.BlockRounds(opts); r.Rounds > cadence {
		return fmt.Errorf("cluster: block rounds %d above the job's cadence of %d", r.Rounds, cadence)
	}
	switch budget := core.MaxBlocks(opts); {
	case r.SkipBlocks > budget || r.MaxBlocks > budget:
		return fmt.Errorf("cluster: skipBlocks %d / maxBlocks %d above the job's budget of %d blocks", r.SkipBlocks, r.MaxBlocks, budget)
	case r.MaxBlocks > 0 && r.SkipBlocks > r.MaxBlocks:
		return fmt.Errorf("cluster: skipBlocks %d past maxBlocks %d", r.SkipBlocks, r.MaxBlocks)
	}
	return r.VR.Validate()
}

// StreamHeader is the first line of a /v1/run response; the client
// checks it against the request before merging anything.
type StreamHeader struct {
	Lanes  int `json:"lanes"`
	Rounds int `json:"rounds"`
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
	if err := decodeJSON(http.MaxBytesReader(w, r.Body, maxBodyBytes), v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// decodeJSON decodes one request body, rejecting unknown fields.
func decodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}
