// Package service is the long-running power-estimation service behind
// cmd/dipe-server: it turns the one-shot DIPE estimator of the paper
// (Yuan/Teng/Kang, DAC 1997) into a shared HTTP/JSON system that
// amortizes circuit preparation across requests.
//
// It has three layers:
//
//   - Registry (registry.go): a named circuit store — the built-in
//     ISCAS89 benchmark set plus uploaded .bench/BLIF netlists — with an
//     LRU cache of frozen circuits and their instrumented testbenches
//     (CSR view, delay table, power weights), each entry next to the
//     provenance (CircuitSource) it was built from. Parsing and freezing
//     a design is paid once, not per request; cache hits and misses are
//     observable via Stats.
//
//   - Manager (jobs.go): an asynchronous job manager. Clients submit an
//     estimation request (circuit, input source, options, seed) and get
//     a job ID back; a bounded worker pool runs jobs with live progress
//     snapshots, cancellation, and deterministic seeding — two identical
//     requests return bit-identical estimates regardless of pool load.
//     The manager is each job's one front end: it resolves the job's
//     testbench and provenance from one registry entry, keys the job's
//     result by that provenance, and hands the job to a dispatcher with
//     its prepare hook, which runs the pre-sampling phases
//     (core.PreparePlanCtx) and journals their checkpoint with that
//     provenance before it returns. A job resumed from its checkpoint
//     after a restart runs on the journaled provenance, whatever its
//     name resolves to by then, and its hook returns the checkpoint.
//     Finished jobs stay queryable in a bounded window (the newest
//     256); an older ID answers 404 with ErrJobEvicted. The window is
//     the result cache too: a repeat of a request is answered with a
//     copy of the result of the newest done job in the window that
//     holds it, and runs again once no such job is left, so no
//     finished result outlives the window. Stats keeps lifetime totals
//     per state, updated at each transition, so /v1/stats costs the
//     same however many jobs have run.
//
//   - HTTP API (handlers.go, server.go): submit/poll/wait/cancel job
//     endpoints, a batch endpoint that fans a list of jobs across the
//     pool, circuit upload/list, registry/pool statistics, and the
//     liveness/readiness split (/healthz vs /readyz).
//
// Estimation goes through the Dispatcher seam (dispatch.go), which
// calls the job's prepare hook before it merges any block: the local
// dispatcher runs core.EstimateParallelFrom in-process, so the tail
// warms up beside the hook's phase 1, while internal/cluster's
// Coordinator calls the hook and then shards the same sampling tail
// across dipe-worker processes — transparently and bit-identically,
// because both use the same replication seeding and merge order. Shutdown
// drains: Close cancels live jobs, rejects new submissions (ErrClosed)
// and waits for the pool, so no estimation goroutine outlives the
// service.
//
// The package is deliberately independent of any particular transport
// policy: Service.Handler returns a plain http.Handler, so it can be
// mounted under a larger mux, wrapped with middleware, or driven
// directly from httptest in handler tests.
package service
