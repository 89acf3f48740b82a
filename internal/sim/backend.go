package sim

import (
	"fmt"

	"repro/internal/netlist"
	"repro/internal/vectors"
)

// Backend names a lane-parallel simulation backend for the sampling
// phase: the compiled word-level program or the interpreted packed
// sweep. The empty string means the default, compiled, which every
// estimate runs on; "packed" is the oracle tests compare it against
// (core.Options.Backend is the in-process seam that selects it).
type Backend string

const (
	// BackendPacked is the interpreted bit-parallel simulator
	// (PackedSession): one levelized CSR sweep per cycle, 64 lanes.
	BackendPacked Backend = "packed"
	// BackendCompiled is the compiled word-level engine
	// (CompiledSession): the circuit is compiled once into straight-line
	// bytecode and replayed, with up to CompiledMaxLanes lanes per step.
	BackendCompiled Backend = "compiled"
)

// Canonical maps the empty backend to the default.
func (b Backend) Canonical() Backend {
	if b == "" {
		return BackendCompiled
	}
	return b
}

// Validate rejects unknown backend names.
func (b Backend) Validate() error {
	switch b.Canonical() {
	case BackendPacked, BackendCompiled:
		return nil
	}
	return fmt.Errorf("sim: unknown backend %q", string(b))
}

// String returns the canonical name.
func (b Backend) String() string { return string(b.Canonical()) }

// Backends lists the valid canonical backends.
func Backends() []Backend { return []Backend{BackendPacked, BackendCompiled} }

// MaxLanesFor returns the widest session the backend supports.
func MaxLanesFor(b Backend) int {
	if b.Canonical() == BackendCompiled {
		return CompiledMaxLanes
	}
	return MaxLanes
}

// LaneSession is the lane-parallel session contract the estimation
// layer drives: both PackedSession and CompiledSession implement it
// with bit-identical per-lane observations, so the packed oracle checks
// every bit the compiled engine observes. See the differential battery
// in this package for the enforcement.
type LaneSession interface {
	// Circuit returns the simulated circuit.
	Circuit() *netlist.Circuit
	// Lanes returns the number of active replication lanes.
	Lanes() int
	// ResetCounters zeroes the cycle-cost counters.
	ResetCounters()
	// CycleCounts returns the per-replication hidden and sampled cycle
	// counts accumulated so far.
	CycleCounts() (hidden, sampled uint64)
	// StepHidden advances every lane one cycle without observing power.
	StepHidden()
	// StepHiddenN advances n cycles with StepHidden.
	StepHiddenN(n int)
	// StepSampled advances one cycle and writes each lane's weighted
	// zero-delay toggle power into powers[:Lanes()].
	StepSampled(weights, powers []float64)
	// StepSampledWith advances one cycle, observing each lane with the
	// scalar power engine (general-delay accounting).
	StepSampledWith(engine PowerEngine, weights, powers []float64)
	// StepSampledBoth observes each lane with the scalar engine while
	// also computing the zero-delay toggle covariate at word level.
	StepSampledBoth(engine PowerEngine, weights []float64, powers, toggles []float64)
	// AccumulateToggles installs dst (len NumNodes, nil to disable) as a
	// per-node transition-count accumulator over all active lanes of
	// every sampled cycle. Counts are integers merged by addition, so
	// they are bit-identical across backends, lane widths and any
	// partition of the replication space.
	AccumulateToggles(dst []uint64)
	// ExtractLane copies lane k's settled state into scalar arrays; any
	// destination may be nil.
	ExtractLane(k int, vals, pins, q []bool)
}

// NewLaneSession builds a session of the given backend over the
// per-lane sources. The packed backend accepts up to MaxLanes sources,
// the compiled backend up to CompiledMaxLanes; lane k of either is
// bit-identical to a ScalarSession seeded from srcs[k].
func NewLaneSession(b Backend, c *netlist.Circuit, srcs []vectors.Source) LaneSession {
	if b.Canonical() == BackendCompiled {
		return NewCompiledSession(c, srcs)
	}
	return NewPackedSession(c, srcs)
}

// SessionConfig once carried compiled-session tuning options.
//
// Deprecated: SessionConfig has no effect. A compiled session runs its
// programs in the one form internal/compile emits, so there is nothing
// left to tune. It remains only because the benchmark module still
// passes one to NewLaneSessionConfig; it goes once the benchmark stops.
type SessionConfig struct {
	// Deprecated: CacheBudget has no effect; see SessionConfig.
	CacheBudget int
	// Deprecated: Workers has no effect; see SessionConfig.
	Workers int
}

// NewLaneSessionConfig is NewLaneSession; it ignores cfg.
//
// Deprecated: use NewLaneSession. SessionConfig has no effect; this
// remains only because the benchmark module still calls it.
func NewLaneSessionConfig(b Backend, c *netlist.Circuit, srcs []vectors.Source, cfg SessionConfig) LaneSession {
	return NewLaneSession(b, c, srcs)
}

// CycleCounts returns the packed session's cost counters, satisfying
// LaneSession.
func (s *PackedSession) CycleCounts() (hidden, sampled uint64) {
	return s.HiddenCycles, s.SampledCycles
}
