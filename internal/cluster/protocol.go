package cluster

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/service"
)

// RunRequest asks a worker to simulate one replication-range stream of
// a job and send back its power samples. It carries the job (circuit
// hash, input source, seed and option spec) and the core.Stream,
// embedded so its fields are the request's own wire keys (vr,
// interval, repLo, repHi, skipBlocks, budgetRounds). Interval selection
// has already happened in the coordinator's process, and the stopping
// decision will happen there too. The block cadence and the block
// budget are not on the wire: the worker derives them from the options
// (core.BlockRounds, core.MaxBlocks), as the coordinator's merger does.
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
	// same power mode, warm-up, block cadence, block budget and
	// breakdown setting. Counting for a breakdown never changes the
	// samples.
	Options service.OptionsSpec `json:"options"`
	core.Stream
}

// Validate rejects requests a worker could not run: the option spec
// must pass the job's own size limits (service.OptionsSpec.Validate),
// the interval must not exceed service.MaxFixedInterval, and the stream
// must be one the job's options allow (core.Stream.Validate). A worker
// allocates the range's sessions and a block of samples before the
// first block, and fast-forwards SkipBlocks blocks, so these bounds are
// what keep one request from exhausting its memory or its CPU.
func (r RunRequest) Validate() error {
	switch {
	case r.Hash == "":
		return fmt.Errorf("cluster: run request missing circuit hash")
	case r.Interval > service.MaxFixedInterval:
		return fmt.Errorf("cluster: interval %d above the limit of %d", r.Interval, service.MaxFixedInterval)
	}
	if err := r.Options.Validate(); err != nil {
		return err
	}
	return r.Stream.Validate(r.Options.Options())
}

// StreamHeader is the first line of a /v1/run response; the client
// checks it against the request before merging anything. Rounds is the
// block cadence the worker derived from the job's options.
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

// maxRunBytes bounds a /v1/run body, which carries no netlist.
const maxRunBytes = 8 << 20

// maxInstallBytes bounds a /v1/circuits body. It carries a provenance
// the service accepted under its own body bound, re-encoded by the
// coordinator's encoding/json, which writes each <, > and & as six
// bytes (\u003c): six bytes per accepted byte is the worst growth of
// re-encoding, so every upload the service accepts installs.
const maxInstallBytes = 6 * service.MaxBodyBytes
