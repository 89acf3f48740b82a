package core

import (
	"repro/internal/obs"
	"repro/internal/power"
)

// Metrics is the process-wide telemetry of the sampling/stopping phase,
// updated by the Merger after every merged block. One Metrics is shared
// by all runs in a process, so it holds only counters that aggregate
// across jobs; a job's own estimate and half-width live on its
// progress, its trace's merge-round events and its Result.
//
// A nil *Metrics (the default, e.g. CLI runs without -progress-json
// consumers) is skipped with a single branch per merged block.
type Metrics struct {
	// Runs counts sampling phases started.
	Runs *obs.Counter
	// Rounds counts merged rounds (one round = one sample from every
	// replication) across all runs.
	Rounds *obs.Counter
	// Samples counts criterion samples consumed across all runs.
	Samples *obs.Counter
	// Power is the attribution telemetry (dipe_power_*), fed one report
	// per finished breakdown run. Nil when the registry was nil.
	Power *power.Metrics
}

// NewCoreMetrics registers the convergence metrics on r (nil r gives a
// nil Metrics, which disables the instrumentation).
func NewCoreMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Runs:    r.Counter("dipe_core_runs_total", "Sampling phases started."),
		Rounds:  r.Counter("dipe_core_rounds_total", "Replication rounds merged into the stopping criterion."),
		Samples: r.Counter("dipe_core_samples_total", "Samples consumed by the stopping criterion."),
		Power:   power.NewMetrics(r),
	}
}
