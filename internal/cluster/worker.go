package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// DefaultCircuitCap bounds the worker's installed-circuit table.
const DefaultCircuitCap = 64

// WorkerConfig sizes a worker. The zero value is a valid worker.
type WorkerConfig struct {
	// CircuitCap bounds the number of installed frozen circuits
	// (default DefaultCircuitCap); beyond it the oldest is evicted and
	// will simply be re-propagated on its next miss.
	CircuitCap int
	// Obs, when non-nil, registers the worker's serving metrics
	// (dipe_worker_*) and mounts the registry's scrape endpoint on the
	// worker mux at GET /metrics.
	Obs *obs.Registry
	// Log, when non-nil, receives structured request-lifecycle events.
	Log *obs.Logger
}

// Worker is the stateless sampling slave of the cluster: it holds no
// job state, only a content-addressed table of frozen circuits, and
// answers /v1/run by streaming a replication range's samples until told
// to stop. Everything statistical — interval selection, the pooled
// stopping rule, retry bookkeeping — lives in the coordinator's
// process.
type Worker struct {
	mu    sync.Mutex
	tbs   map[string]*core.Testbench
	order []string // installation order, for eviction
	cap   int

	streams atomic.Int64 // currently running /v1/run streams
	served  atomic.Int64 // total /v1/run streams accepted
	blocks  atomic.Int64 // total sample blocks emitted across streams

	log *obs.Logger
	mux *http.ServeMux
}

// NewWorker builds a worker service; mount Handler on an http.Server.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.CircuitCap <= 0 {
		cfg.CircuitCap = DefaultCircuitCap
	}
	w := &Worker{
		tbs: make(map[string]*core.Testbench),
		cap: cfg.CircuitCap,
		log: cfg.Log.With("component", "worker"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", w.handleHealth)
	mux.HandleFunc("GET /readyz", w.handleHealth)
	mux.HandleFunc("POST /v1/circuits", w.handleInstall)
	mux.HandleFunc("POST /v1/run", w.handleRun)
	if cfg.Obs != nil {
		// Serving state is already tracked in atomics for /healthz; the
		// registry reads the same cells at scrape time.
		cfg.Obs.CounterFunc("dipe_worker_streams_served_total",
			"Sample streams (/v1/run) accepted since start.",
			func() uint64 { return uint64(w.served.Load()) })
		cfg.Obs.CounterFunc("dipe_worker_blocks_emitted_total",
			"Sample blocks written to stream clients.",
			func() uint64 { return uint64(w.blocks.Load()) })
		cfg.Obs.GaugeFunc("dipe_worker_streams_active",
			"Sample streams running right now.",
			func() float64 { return float64(w.streams.Load()) })
		cfg.Obs.GaugeFunc("dipe_worker_circuits_installed",
			"Frozen circuits in the content-addressed table.",
			func() float64 { return float64(w.Circuits()) })
		mux.Handle("GET /metrics", cfg.Obs.Handler())
	}
	w.mux = mux
	return w
}

// Handler returns the worker's HTTP API.
func (w *Worker) Handler() http.Handler { return w.mux }

// Circuits returns the number of installed circuits.
func (w *Worker) Circuits() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.tbs)
}

// handleHealth answers both liveness and readiness: a worker with a
// serving mux is ready (circuits arrive by propagation), so the two
// probes coincide here — unlike the coordinator, whose readiness
// depends on this endpoint.
func (w *Worker) handleHealth(rw http.ResponseWriter, r *http.Request) {
	writeJSON(rw, http.StatusOK, map[string]any{
		"status":   "ok",
		"circuits": w.Circuits(),
		"streams":  w.streams.Load(),
		"served":   w.served.Load(),
	})
}

// handleInstall installs a circuit from its provenance, verifying the
// content hash so a worker can never hold a circuit under the wrong
// name.
func (w *Worker) handleInstall(rw http.ResponseWriter, r *http.Request) {
	var req InstallRequest
	if !readJSON(rw, r, &req) {
		return
	}
	if got := service.HashSource(req.Source); got != req.Hash {
		writeError(rw, http.StatusBadRequest,
			fmt.Errorf("cluster: provenance hashes to %.12s..., claimed %.12s...", got, req.Hash))
		return
	}
	tb, err := req.Source.Testbench()
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	w.install(req.Hash, tb)
	w.log.Info("circuit installed", "hash", req.Hash[:min(12, len(req.Hash))], "gates", tb.Circuit.NumGates())
	writeJSON(rw, http.StatusCreated, InstallResponse{
		Hash:  req.Hash,
		Gates: tb.Circuit.NumGates(),
	})
}

// install puts a testbench in the table, evicting the oldest entry
// beyond capacity.
func (w *Worker) install(hash string, tb *core.Testbench) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.tbs[hash]; !ok {
		w.order = append(w.order, hash)
	}
	w.tbs[hash] = tb
	for len(w.order) > w.cap {
		delete(w.tbs, w.order[0])
		w.order = w.order[1:]
	}
}

func (w *Worker) lookup(hash string) *core.Testbench {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.tbs[hash]
}

// handleRun streams a replication range's sample blocks as NDJSON: one
// StreamHeader line, then core.ReplicationBlock lines until MaxBlocks is
// reached or the client disconnects (the coordinator cancels the
// request when the pooled criterion converges). All validation happens
// before the 200 header goes out; once streaming starts the only
// failure modes are connection loss, which the coordinator treats as a
// worker death.
func (w *Worker) handleRun(rw http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if !readJSON(rw, r, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}
	tb := w.lookup(req.Hash)
	if tb == nil {
		writeError(rw, http.StatusNotFound,
			fmt.Errorf("cluster: unknown circuit %.12s...", req.Hash))
		return
	}
	factory, err := req.Source.Factory(len(tb.Circuit.Inputs))
	if err != nil {
		writeError(rw, http.StatusBadRequest, err)
		return
	}

	w.streams.Add(1)
	w.served.Add(1)
	defer w.streams.Add(-1)
	w.log.Debug("stream start",
		"hash", req.Hash[:min(12, len(req.Hash))],
		"reps", fmt.Sprintf("[%d,%d)", req.RepLo, req.RepHi),
		"skipBlocks", req.SkipBlocks)

	flusher, _ := rw.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(rw)
	if err := enc.Encode(StreamHeader{Lanes: req.RepHi - req.RepLo, Rounds: req.Rounds}); err != nil {
		return
	}
	flush()

	// Errors terminate the stream; the client distinguishes a complete
	// stream from a truncated one by block count, so nothing more is
	// needed here. ctx errors are the normal convergence path.
	_ = core.StreamReplications(r.Context(), tb, factory, req.Seed, req.Options.Options(),
		req.VR, req.Interval, req.RepLo, req.RepHi, req.Rounds, req.SkipBlocks, req.MaxBlocks, req.BudgetRounds,
		func(b core.ReplicationBlock) error {
			if err := enc.Encode(b); err != nil {
				return err
			}
			w.blocks.Add(1)
			flush()
			return nil
		})
}
