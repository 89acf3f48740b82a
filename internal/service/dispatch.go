package service

import (
	"context"
	"time"

	"repro/internal/core"
)

// Dispatcher runs a validated job's estimation phase on a resolved
// testbench. It is the seam between the job manager and the execution
// substrate: the local dispatcher calls the parallel estimator in
// process, the cluster dispatcher (internal/cluster.Coordinator) shards
// the job's replications across dipe-worker processes and merges their
// partial results into the same sequential stopping rule. Existing jobs
// run transparently on either — both substrates use the identical
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
	// Estimate runs one job to completion (or ctx cancellation),
	// reporting running snapshots through progress (never concurrently
	// with itself). On cancellation it returns the partial result with
	// ctx's error, like core.EstimateParallelCtx.
	//
	// The pre-sampling/sampling boundary is the checkpoint seam: a nil
	// ckpt runs interval selection and plan resolution and reports their
	// frozen outcome through save (when non-nil) before sampling starts;
	// a non-nil ckpt skips them and resumes sampling directly. By the
	// determinism contract a resumed job finishes with a Result
	// bit-identical to the uninterrupted run's. The Result's Elapsed
	// covers the whole call, so a resumed job reports this process's
	// share.
	Estimate(ctx context.Context, tb *core.Testbench, req JobRequest, ckpt *Checkpoint, save func(Checkpoint), progress func(core.Progress)) (core.Result, error)
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

// RegistryAware is the optional Dispatcher extension for substrates
// that must propagate circuits to remote processes: New hands the
// service registry to the dispatcher so it can look up a job circuit's
// provenance (Registry.Source) and ship it to workers that miss it.
type RegistryAware interface {
	SetRegistry(*Registry)
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

// localDispatcher runs jobs in-process over the goroutine-parallel
// estimator — the single-node default. met, when non-nil, feeds the
// estimator's per-round convergence telemetry (dipe_core_*).
type localDispatcher struct {
	met *core.Metrics
}

// NewLocalDispatcher returns the in-process dispatcher.
func NewLocalDispatcher() Dispatcher { return localDispatcher{} }

func (localDispatcher) Name() string { return "local" }

func (localDispatcher) Ready() error { return nil }

func (d localDispatcher) Estimate(ctx context.Context, tb *core.Testbench, req JobRequest, ckpt *Checkpoint, save func(Checkpoint), progress func(core.Progress)) (core.Result, error) {
	start := time.Now()
	factory, err := req.Source.Factory(len(tb.Circuit.Inputs))
	if err != nil {
		return core.Result{}, err
	}
	opts := req.Options.Options()
	opts.Progress = progress
	opts.Metrics = d.met
	var rp core.ResumePoint
	if ckpt != nil {
		rp = *ckpt
	} else {
		if rp, err = core.PreparePlanCtx(ctx, tb, factory, req.Seed, opts, req.Interval); err != nil {
			return core.Result{}, err
		}
		if save != nil {
			save(rp)
		}
	}
	res, err := core.EstimateParallelResumeCtx(ctx, tb, factory, req.Seed, opts, rp)
	res.Elapsed = time.Since(start)
	return res, err
}
