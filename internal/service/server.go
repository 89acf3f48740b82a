package service

import (
	"errors"
	"log/slog"
	"net/http"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// Config sizes the service. The zero value means defaults everywhere,
// so Config{} is a valid production starting point.
type Config struct {
	// CacheSize is the frozen-circuit LRU capacity (default
	// DefaultCacheSize).
	CacheSize int
	// Workers is the number of concurrently running estimation jobs
	// (default 2). Each job additionally steps its replication shards
	// on up to GOMAXPROCS simulation goroutines.
	Workers int
	// QueueSize bounds pending (queued, not yet running) jobs
	// (default 64); Submit beyond it returns ErrQueueFull.
	QueueSize int
	// Dispatcher selects the execution substrate for jobs: nil means
	// the in-process local dispatcher; a cluster.Coordinator shards jobs
	// across dipe-worker processes instead.
	Dispatcher Dispatcher
	// Store, when non-nil, makes the job pool durable: every job is
	// journaled to the store's state directory and a restarted service
	// resumes journaled in-flight jobs from their checkpoints. Open one
	// with OpenJobStore; the service owns it from here (closed on
	// Close).
	Store *JobStore
	// Obs, when non-nil, is the metrics registry the service's and the
	// local estimator's instruments register on; the caller typically
	// also mounts Obs.Handler() at /metrics. Nil disables nothing
	// visible — an internal registry keeps /v1/stats counters real.
	Obs *obs.Registry
	// Log, when non-nil, receives structured job-lifecycle events.
	Log *slog.Logger
}

// DefaultConfig returns the default sizing.
func DefaultConfig() Config { return Config{} }

// Service bundles the circuit registry, the job pool and the HTTP API.
// Create one with New, mount Handler on an http.Server, and Close on
// shutdown.
type Service struct {
	Registry *Registry
	Jobs     *Manager
	dispatch Dispatcher
	mux      *http.ServeMux
	closing  sync.Once
}

// New builds a service from the config and starts its worker pool.
func New(cfg Config) *Service {
	dispatch := cfg.Dispatcher
	if dispatch == nil {
		// The local estimator's convergence telemetry registers here; a
		// cluster dispatcher wires its own (CoordinatorConfig.Obs).
		dispatch = localDispatcher{met: core.NewCoreMetrics(cfg.Obs)}
	}
	s := &Service{Registry: NewRegistry(cfg.CacheSize), dispatch: dispatch}
	s.Jobs = NewManagerObs(s.Registry, dispatch, cfg.Workers, cfg.QueueSize, cfg.Store, cfg.Obs, cfg.Log)
	s.mux = s.routes()
	return s
}

// Handler returns the HTTP API (see routes for the endpoint table).
func (s *Service) Handler() http.Handler { return s.mux }

// Ready reports whether the service can run jobs right now: the
// registry and job pool must exist and the dispatcher must be ready (in
// cluster mode, at least one worker reachable). GET /readyz surfaces
// the error; liveness (/healthz) stays green regardless, so an
// orchestrator restarts the process only when it is actually dead, not
// merely awaiting workers.
func (s *Service) Ready() error {
	if s.Registry == nil || s.Jobs == nil {
		return errors.New("service: not initialised")
	}
	return s.dispatch.Ready()
}

// Close drains the job pool: further submissions are rejected, live
// jobs are cancelled, and the call blocks until every in-flight
// estimation goroutine has retired — callers can safely proceed to
// http.Server.Shutdown knowing no estimate leaks. Idempotent.
func (s *Service) Close() { s.closing.Do(s.Jobs.Close) }
