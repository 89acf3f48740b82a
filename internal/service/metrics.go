package service

import "repro/internal/obs"

// serviceMetrics is the job manager's registry-backed telemetry. A
// manager always has one — when Config.Obs is nil an internal registry
// backs the same cells — so the /v1/stats JSON (cache hits/misses,
// job-state counts) reads real instruments whether or not a /metrics
// endpoint is mounted, and the two views cannot drift.
type serviceMetrics struct {
	submitted   *obs.Counter
	finished    *obs.CounterVec // by terminal state
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
}

func newServiceMetrics(r *obs.Registry) *serviceMetrics {
	return &serviceMetrics{
		submitted: r.Counter("dipe_service_jobs_submitted_total",
			"Jobs accepted by Submit (including cache hits)."),
		finished: r.CounterVec("dipe_service_jobs_finished_total",
			"Jobs reaching a terminal state, by state.", "state"),
		cacheHits: r.Counter("dipe_service_cache_hits_total",
			"Submissions answered from the result cache."),
		cacheMisses: r.Counter("dipe_service_cache_misses_total",
			"Submissions that had to run."),
	}
}

// registerStateGauges exposes the job-state counts — the same numbers
// PoolStats reports — as scrape-time gauges.
func (m *Manager) registerStateGauges(r *obs.Registry) {
	for _, st := range []JobState{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		help := "Jobs currently in state " + string(st) + "."
		if st.Terminal() {
			help = "Jobs that ended in state " + string(st) + ", including those evicted from the finished-job window."
		}
		r.GaugeFunc("dipe_service_jobs_"+string(st), help, func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.counts[st])
		})
	}
}
