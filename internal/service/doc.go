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
//     testbench and provenance from one registry entry, keys the result
//     cache by that provenance, runs the pre-sampling phases
//     (core.PreparePlanCtx) and journals their checkpoint, and only then
//     hands the job to a dispatcher.
//
//   - HTTP API (handlers.go, server.go): submit/poll/wait/cancel job
//     endpoints, a batch endpoint that fans a list of jobs across the
//     pool, circuit upload/list, registry/pool statistics, and the
//     liveness/readiness split (/healthz vs /readyz).
//
// Sampling goes through the Dispatcher seam (dispatch.go): the local
// dispatcher runs core.EstimateParallelResumeCtx in-process, while
// internal/cluster's Coordinator shards the same sampling tail across
// dipe-worker processes — transparently and bit-identically, because
// both use the same replication seeding and merge order. Shutdown
// drains: Close cancels live jobs, rejects new submissions (ErrClosed)
// and waits for the pool, so no estimation goroutine outlives the
// service.
//
// The package is deliberately independent of any particular transport
// policy: Service.Handler returns a plain http.Handler, so it can be
// mounted under a larger mux, wrapped with middleware, or driven
// directly from httptest in handler tests.
package service
