package sim

import (
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// Backend once named the lane-parallel simulation backend of the
// sampling phase.
//
// Deprecated: every estimate runs on CompiledSession, so there is
// nothing left to select. Backend remains only because the benchmark
// module still reads it; it goes once the benchmark stops.
type Backend string

// Canonical returns "compiled", the one lane engine, whatever b is.
//
// Deprecated: see Backend.
func (Backend) Canonical() Backend { return "compiled" }

// MaxLanesFor returns CompiledMaxLanes, whatever b is.
//
// Deprecated: use CompiledMaxLanes. MaxLanesFor remains only because
// the benchmark module still reads it.
func MaxLanesFor(Backend) int { return CompiledMaxLanes }

// LaneSession is the lane-parallel session the estimators drive.
//
// Deprecated: use *CompiledSession. LaneSession remains only because
// the benchmark module still reads it.
type LaneSession = *CompiledSession

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

// NewLaneSessionConfig is NewCompiledSession(c, srcs); it ignores its
// backend and cfg.
//
// Deprecated: use NewCompiledSession. NewLaneSessionConfig remains only
// because the benchmark module still reads it.
func NewLaneSessionConfig(_ Backend, c *netlist.Circuit, srcs []vectors.Source, _ SessionConfig) LaneSession {
	return NewCompiledSession(c, srcs)
}
