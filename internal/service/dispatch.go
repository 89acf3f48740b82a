package service

import (
	"context"
	"time"

	"repro/internal/core"
)

// Dispatcher runs the estimate of a job whose circuit the job manager
// has resolved. It is the seam between the job manager and the
// execution substrate: the local dispatcher estimates in process, the
// cluster dispatcher (internal/cluster.Coordinator) shards the job's
// replications across dipe-worker processes and merges their blocks
// into the same sequential stopping rule. Existing jobs run
// transparently on either — both substrates use the identical
// replication seeding (baseSeed+1+r) and merge order, so the choice is
// invisible in the Result.
type Dispatcher interface {
	// Name labels the dispatch strategy in statistics ("local",
	// "cluster").
	Name() string
	// Ready reports whether the dispatcher can currently run jobs; the
	// /readyz probe surfaces its error. The local dispatcher is always
	// ready; the cluster dispatcher requires at least one live worker.
	Ready() error
	// Sample runs one job's estimate to completion (or ctx
	// cancellation), reporting running snapshots through progress
	// (never concurrently with itself). It calls prepare once, on its
	// caller's goroutine and before it merges any block, for the job's
	// frozen pre-sampling point: the manager's hook runs phase 1 and
	// plan resolution and journals the checkpoint, or returns the
	// journaled one of a resumed job. tb and src come from one registry
	// entry: src is the provenance tb was built from, which the cluster
	// ships to workers. On cancellation it returns the partial result
	// with ctx's error, like core.EstimateParallelFrom. By the
	// determinism contract the Result is bit-identical to
	// core.EstimateParallel's for any point core.PreparePlanCtx produced
	// for the same job.
	Sample(ctx context.Context, tb *core.Testbench, src CircuitSource, req JobRequest, prepare func() (core.ResumePoint, error), progress func(core.Progress)) (core.Result, error)
}

// WorkerRegistrar is the optional Dispatcher extension for substrates
// with a dynamic worker set; the HTTP layer exposes it as the
// /v1/cluster/workers endpoints when the configured dispatcher
// implements it.
type WorkerRegistrar interface {
	// AddWorker registers (or re-registers) a worker by base URL.
	AddWorker(url string) error
	// Workers snapshots the registered workers.
	Workers() []WorkerStatus
}

// WorkerStatus is one registered worker's health and degradation
// snapshot. Beyond liveness, the lease counters let operators see a
// worker that is alive but slow (leases keep expiring), flaky (streams
// keep retrying) or picking up others' work (reassignments).
type WorkerStatus struct {
	URL      string    `json:"url"`
	Alive    bool      `json:"alive"`
	LastSeen time.Time `json:"lastSeen,omitzero"`
	// Failures counts stream and heartbeat failures attributed to the
	// worker since registration.
	Failures uint64 `json:"failures"`
	// ActiveLeases is the number of replication-range leases the worker
	// holds right now.
	ActiveLeases int `json:"activeLeases,omitempty"`
	// Retries counts failed stream attempts charged to the worker
	// (transport/server errors and expired leases alike).
	Retries uint64 `json:"retries,omitempty"`
	// Reassignments counts leases the worker inherited mid-range after
	// another worker failed or timed out (its streams replay the merged
	// prefix via SkipBlocks).
	Reassignments uint64 `json:"reassignments,omitempty"`
	// LeaseExpiries counts leases reclaimed from the worker because a
	// block missed its delivery deadline.
	LeaseExpiries uint64 `json:"leaseExpiries,omitempty"`
	// LeaseGrants counts replication-range leases granted to the worker.
	LeaseGrants uint64 `json:"leaseGrants,omitempty"`
	// LeaseSteals counts expired leases the worker took over from
	// another worker (the work-stealing path; counted on the thief).
	LeaseSteals uint64 `json:"leaseSteals,omitempty"`
	// LastError is the most recent failure attributed to the worker.
	LastError string `json:"lastError,omitempty"`
}

// localDispatcher runs jobs in process on the estimator's one
// lifecycle (core.EstimateParallelFrom), so the tail warms up beside
// the manager's prepare hook — the single-node default. met, when
// non-nil, feeds the estimator's per-round convergence telemetry
// (dipe_core_*).
type localDispatcher struct {
	met *core.Metrics
}

// NewLocalDispatcher returns the in-process dispatcher.
func NewLocalDispatcher() Dispatcher { return localDispatcher{} }

func (localDispatcher) Name() string { return "local" }

func (localDispatcher) Ready() error { return nil }

func (d localDispatcher) Sample(ctx context.Context, tb *core.Testbench, _ CircuitSource, req JobRequest, prepare func() (core.ResumePoint, error), progress func(core.Progress)) (core.Result, error) {
	factory, err := req.Source.Factory(len(tb.Circuit.Inputs))
	if err != nil {
		return core.Result{}, err
	}
	opts := req.Options.Options()
	opts.Progress = progress
	opts.Metrics = d.met
	return core.EstimateParallelFrom(ctx, tb, factory, req.Seed, opts, prepare)
}
