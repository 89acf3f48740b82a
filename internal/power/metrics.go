package power

import "repro/internal/obs"

// Metrics is the attribution telemetry: how many breakdown reports were
// built and how many raw transitions they covered. A report's
// dynamic/leakage split belongs to its job (Result.Breakdown), not to a
// process-wide gauge that the last job to finish overwrites. Like every
// obs consumer, a nil *Metrics is skipped with one branch per report —
// breakdown-off runs never touch an instrument.
type Metrics struct {
	// Breakdowns counts attribution reports built.
	Breakdowns *obs.Counter
	// Toggles counts raw per-node transitions folded into reports.
	Toggles *obs.Counter
}

// NewMetrics registers the attribution metrics on r (nil r gives a nil
// Metrics, which disables the instrumentation).
func NewMetrics(r *obs.Registry) *Metrics {
	if r == nil {
		return nil
	}
	return &Metrics{
		Breakdowns: r.Counter("dipe_power_breakdowns_total", "Per-node power attribution reports built."),
		Toggles:    r.Counter("dipe_power_breakdown_toggles_total", "Raw node transitions folded into attribution reports."),
	}
}

// Observe records one finished report. Nil-safe on both receivers.
func (m *Metrics) Observe(rep *BreakdownReport) {
	if m == nil || rep == nil {
		return
	}
	var toggles uint64
	for i := range rep.Rows {
		toggles += rep.Rows[i].Toggles
	}
	m.Breakdowns.Inc()
	m.Toggles.Add(toggles)
}
