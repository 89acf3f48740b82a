package sim

import (
	"sync/atomic"

	"repro/internal/obs"
)

// CompiledMetrics is the process-wide execution telemetry of the
// compiled backend, fed by every CompiledSession in the process:
// register-file passes, instructions executed, and lane-steps advanced
// (lanes/step is lane_steps/execs at query time).
type CompiledMetrics struct {
	Execs *obs.Counter
	Insts *obs.Counter
	// Deprecated: SpillRows has no effect and is always nil; a nil
	// counter reads 0. Compiled programs run in one form that copies no
	// spill rows. It remains only because the benchmark module reads it;
	// it goes once the benchmark stops reading it.
	SpillRows *obs.Counter
	LaneSteps *obs.Counter
}

// compiledMet is the installed sink. An atomic pointer (not a plain
// global) so servers can install it after sessions exist and tests can
// swap it; the disabled path is one pointer load and branch per
// register-file pass — per-instruction costs are untouched, which is
// what keeps observability free when off (see
// BenchmarkCompiledObsOverhead).
var compiledMet atomic.Pointer[CompiledMetrics]

// RegisterCompiledMetrics registers the compiled-engine counters on r
// and installs them as the process-wide sink; a nil registry uninstalls
// (used by tests; servers install once at startup). Returns the
// installed metrics, nil when uninstalled.
func RegisterCompiledMetrics(r *obs.Registry) *CompiledMetrics {
	if r == nil {
		compiledMet.Store(nil)
		return nil
	}
	m := &CompiledMetrics{
		Execs:     r.Counter("dipe_compile_execs_total", "Compiled register-file passes executed."),
		Insts:     r.Counter("dipe_compile_instructions_total", "Compiled word-level instructions executed."),
		LaneSteps: r.Counter("dipe_compile_lane_steps_total", "Replication lane-steps advanced by compiled passes."),
	}
	compiledMet.Store(m)
	return m
}
