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

// LaneSession is a compiled session that still takes its general-delay
// engine per sampled step.
//
// Deprecated: use *CompiledSession, which takes its delay table at
// construction. LaneSession remains only because the benchmark module
// still reads it.
type LaneSession struct {
	*CompiledSession
	from *EventDriven // the engine whose calendar the session observes on
}

// StepSampledWith gives the session a lane engine built from the
// calendar of engine, which must be an *EventDriven, and then takes a
// StepSampled. The session keeps observing event-driven from then on.
//
// Deprecated: see LaneSession.
func (s *LaneSession) StepSampledWith(engine PowerEngine, weights []float64, powers []float64) {
	if ed := engine.(*EventDriven); ed != s.from {
		s.from = ed
		s.observeWith(newEventLanes(ed.calendar))
	}
	s.StepSampled(weights, powers)
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

// NewLaneSessionConfig is NewCompiledSession(c, nil, srcs) as a
// LaneSession; it ignores its backend and cfg.
//
// Deprecated: use NewCompiledSession. NewLaneSessionConfig remains only
// because the benchmark module still reads it.
func NewLaneSessionConfig(_ Backend, c *netlist.Circuit, srcs []vectors.Source, _ SessionConfig) LaneSession {
	return LaneSession{CompiledSession: NewCompiledSession(c, nil, srcs)}
}
