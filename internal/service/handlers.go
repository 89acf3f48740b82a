package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// API shapes specific to the HTTP layer. Job and result shapes live in
// jobs.go (JobRequest, JobView, ...).

// UploadRequest registers a netlist under a name.
type UploadRequest struct {
	Name string `json:"name"`
	// Format is "bench" (default) or "blif".
	Format string `json:"format,omitempty"`
	// Text is the netlist source.
	Text string `json:"text"`
}

// UploadResponse echoes the circuit statistics of a successful upload.
type UploadResponse struct {
	Name    string `json:"name"`
	Stats   string `json:"stats"`
	Inputs  int    `json:"inputs"`
	Gates   int    `json:"gates"`
	Latches int    `json:"latches"`
}

// BatchRequest fans a list of jobs across the pool in one call.
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs"`
}

// BatchResponse lists the job IDs in request order.
type BatchResponse struct {
	IDs []string `json:"ids"`
}

// StatsResponse aggregates registry, pool, cache and durability
// statistics, plus per-worker degradation counters in cluster mode.
type StatsResponse struct {
	Registry RegistryStats `json:"registry"`
	Pool     PoolStats     `json:"pool"`
	// Cache reports result-cache effectiveness (hits answer repeated
	// submissions without re-running them).
	Cache CacheStats `json:"cache"`
	// Store reports the job journal, when the service runs durable.
	Store *StoreStats `json:"store,omitempty"`
	// Dispatcher names the execution substrate ("local" or "cluster").
	Dispatcher string `json:"dispatcher"`
	// Workers mirrors GET /v1/cluster/workers in cluster mode so one
	// stats scrape shows degradation (retries, reassignments, lease
	// expiries, last errors), not just liveness.
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// RegisterWorkerRequest adds a worker to a cluster dispatcher.
type RegisterWorkerRequest struct {
	// URL is the worker's base URL (e.g. "http://10.0.0.7:8416").
	URL string `json:"url"`
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// routes builds the service mux:
//
//	GET    /healthz             liveness (always ok while the process serves)
//	GET    /readyz              readiness (503 until jobs can actually run)
//	GET    /v1/circuits         list resolvable circuit names
//	POST   /v1/circuits         upload a .bench/BLIF netlist
//	POST   /v1/jobs             submit one estimation job
//	GET    /v1/jobs             list all jobs
//	GET    /v1/jobs/{id}        poll one job
//	GET    /v1/jobs/{id}/wait   block until the job finishes (?timeout=30s)
//	GET    /v1/jobs/{id}/trace  ordered lifecycle span list (submit → stop)
//	GET    /v1/jobs/{id}/breakdown  full per-node power attribution dump
//	DELETE /v1/jobs/{id}        cancel a job
//	POST   /v1/batch            submit a list of jobs
//	GET    /v1/stats            registry + pool statistics
//	GET    /v1/cluster/workers  cluster mode: registered workers + health
//	POST   /v1/cluster/workers  cluster mode: register a worker {"url": ...}
func (s *Service) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /v1/cluster/workers", s.handleListWorkers)
	mux.HandleFunc("POST /v1/cluster/workers", s.handleRegisterWorker)
	mux.HandleFunc("GET /v1/circuits", s.handleListCircuits)
	mux.HandleFunc("POST /v1/circuits", s.handleUpload)
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	mux.HandleFunc("GET /v1/jobs/{id}/wait", s.handleWaitJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/breakdown", s.handleJobBreakdown)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	return mux
}

// handleReady is the readiness probe: 200 once jobs can run, 503 with
// the blocking error otherwise. Distinct from /healthz so a cluster
// coordinator waiting for its first worker reads as alive-but-not-ready
// instead of crash-looping.
func (s *Service) handleReady(w http.ResponseWriter, r *http.Request) {
	if err := s.Ready(); err != nil {
		WriteJSON(w, http.StatusServiceUnavailable, map[string]string{
			"status": "not-ready",
			"error":  err.Error(),
		})
		return
	}
	WriteJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// handleListWorkers reports the cluster dispatcher's worker table; in
// local mode there is no worker set and the endpoint says so.
func (s *Service) handleListWorkers(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.dispatch.(WorkerRegistrar)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("dispatcher %q has no worker registry", s.dispatch.Name()))
		return
	}
	WriteJSON(w, http.StatusOK, map[string][]WorkerStatus{"workers": reg.Workers()})
}

// handleRegisterWorker lets a dipe-worker (or an operator) register a
// worker URL with the cluster dispatcher at runtime; re-registering an
// existing URL refreshes it, so workers can POST on every startup.
func (s *Service) handleRegisterWorker(w http.ResponseWriter, r *http.Request) {
	reg, ok := s.dispatch.(WorkerRegistrar)
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("dispatcher %q has no worker registry", s.dispatch.Name()))
		return
	}
	var req RegisterWorkerRequest
	if !ReadJSON(w, r, MaxBodyBytes, &req) {
		return
	}
	if err := reg.AddWorker(req.URL); err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusCreated, map[string][]WorkerStatus{"workers": reg.Workers()})
}

func (s *Service) handleListCircuits(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string][]string{"circuits": s.Registry.Names()})
}

func (s *Service) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	if !ReadJSON(w, r, MaxBodyBytes, &req) {
		return
	}
	stats, err := s.Registry.Upload(req.Name, req.Format, req.Text)
	if err != nil {
		WriteError(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusCreated, UploadResponse{
		Name:    req.Name,
		Stats:   stats.String(),
		Inputs:  stats.Inputs,
		Gates:   stats.Gates,
		Latches: stats.Latches,
	})
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if !ReadJSON(w, r, MaxBodyBytes, &req) {
		return
	}
	id, err := s.Jobs.Submit(req)
	if err != nil {
		WriteError(w, submitStatus(err), err)
		return
	}
	view, _ := s.Jobs.Get(id)
	WriteJSON(w, http.StatusAccepted, view)
}

func (s *Service) handleListJobs(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, map[string][]JobView{"jobs": s.Jobs.List()})
}

func (s *Service) handleGetJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Jobs.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

func (s *Service) handleWaitJob(w http.ResponseWriter, r *http.Request) {
	timeout := 30 * time.Second
	if q := r.URL.Query().Get("timeout"); q != "" {
		d, err := time.ParseDuration(q)
		if err != nil || d <= 0 {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("bad timeout %q", q))
			return
		}
		timeout = d
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	view, err := s.Jobs.Wait(ctx, r.PathValue("id"))
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		// Not done yet: report current state instead of an error so
		// clients can keep polling.
		view, ok := s.Jobs.Get(r.PathValue("id"))
		if !ok {
			WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
			return
		}
		WriteJSON(w, http.StatusAccepted, view)
	case err != nil:
		WriteError(w, http.StatusNotFound, err)
	default:
		WriteJSON(w, http.StatusOK, view)
	}
}

// handleJobTrace reports the job's recorded lifecycle spans in order:
// submit, run, select-interval, plan-resolve, shard, lease/steal,
// merge-round, stop — with millisecond offsets from submission.
func (s *Service) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	tr, ok := s.Jobs.Trace(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, tr)
}

// handleJobBreakdown serves the full per-node power attribution of a
// finished breakdown-enabled job; the job's result view carries only
// the top rows inline.
func (s *Service) handleJobBreakdown(w http.ResponseWriter, r *http.Request) {
	bd, ok := s.Jobs.Breakdown(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	if bd.Report == nil {
		WriteError(w, http.StatusNotFound,
			fmt.Errorf("job %q has no breakdown (submit with options.breakdown=true and wait for completion)", bd.ID))
		return
	}
	WriteJSON(w, http.StatusOK, bd)
}

func (s *Service) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	view, ok := s.Jobs.Cancel(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	WriteJSON(w, http.StatusOK, view)
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !ReadJSON(w, r, MaxBodyBytes, &req) {
		return
	}
	if len(req.Jobs) == 0 {
		WriteError(w, http.StatusBadRequest, errors.New("empty batch"))
		return
	}
	// Validate everything first so a batch is all-or-nothing at the
	// request level; a full queue mid-batch still cancels the remainder.
	for i, jr := range req.Jobs {
		if err := jr.Validate(); err != nil {
			WriteError(w, http.StatusBadRequest, fmt.Errorf("job %d: %w", i, err))
			return
		}
	}
	ids := make([]string, 0, len(req.Jobs))
	for i, jr := range req.Jobs {
		id, err := s.Jobs.Submit(jr)
		if err != nil {
			for _, prev := range ids {
				s.Jobs.Cancel(prev)
			}
			WriteError(w, submitStatus(err), fmt.Errorf("job %d: %w", i, err))
			return
		}
		ids = append(ids, id)
	}
	WriteJSON(w, http.StatusAccepted, BatchResponse{IDs: ids})
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := StatsResponse{
		Registry:   s.Registry.Stats(),
		Pool:       s.Jobs.Stats(),
		Cache:      s.Jobs.CacheStats(),
		Store:      s.Jobs.StoreStats(),
		Dispatcher: s.dispatch.Name(),
	}
	if reg, ok := s.dispatch.(WorkerRegistrar); ok {
		resp.Workers = reg.Workers()
	}
	WriteJSON(w, http.StatusOK, resp)
}

// submitStatus maps Submit errors to HTTP statuses: a full queue and a
// draining manager are server-side transients (503, retry elsewhere or
// later), everything else is a request fault (400).
func submitStatus(err error) int {
	if errors.Is(err, ErrQueueFull) || errors.Is(err, ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusBadRequest
}

// ReadJSON decodes a request body of at most limit bytes into v,
// writing a 400 and returning false on malformed or oversized input.
func ReadJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	if err := DecodeJSON(http.MaxBytesReader(w, r.Body, limit), v); err != nil {
		WriteError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

// DecodeJSON decodes one JSON value from r into v. Unknown fields fail
// the decode, so a misspelled field, or one this server no longer
// accepts, is a 400 instead of being silently ignored.
func DecodeJSON(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// MaxBodyBytes bounds request bodies (netlist uploads dominate; the
// largest ISCAS89 .bench is well under 1 MiB). A cluster worker sizes
// its circuit-install bound from it, so every upload the service
// accepts installs on its workers.
const MaxBodyBytes = 8 << 20

// WriteJSON answers with status and v as indented JSON.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// WriteError answers with status and the uniform error body,
// {"error": err.Error()}.
func WriteError(w http.ResponseWriter, status int, err error) {
	WriteJSON(w, status, errorResponse{Error: err.Error()})
}
