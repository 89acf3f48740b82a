// Package cluster shards the sampling phase of the paper's estimation
// procedure across processes. The service's job manager resolves the
// job's circuit and hands a Coordinator, the cluster dispatcher, the
// job's prepare hook, which runs phase 1 (interval selection and plan
// resolution) in process and journals its checkpoint. The Coordinator
// calls the hook first, then partitions the job's independent
// replications into contiguous seed ranges by core.Ranges, the
// in-process shard layout rule (never below a word row of a job, at
// most four ranges per live worker), streams
// their power samples back from stateless dipe-worker processes over
// HTTP, and feeds them to the same merge loop the single-process
// estimator runs (core.Tail) — so the two-phase
// stopping decision of the paper is made globally, on merged
// statistics, exactly as the single-process estimator makes it.
// A worker's stream is the single-process estimator's block producer
// (core.StreamReplications) pushed onto the wire: a RunRequest is the
// job (circuit hash, input source, seed, option spec) plus one
// core.Stream (plan, interval, replication range, skipped blocks,
// breakdown round budget), and the worker derives the block cadence
// and budget from the options as the coordinator's merger does.
//
// Determinism is the load-bearing property. Replication r is seeded
// baseSeed+1+r no matter which worker runs it, a replication's sample
// stream depends only on its own seed, and the coordinator merges
// samples in the canonical round-major ascending-replication order. An
// N-worker run is therefore bit-identical (mean, half-width, sample
// size, cycle counts) to core.EstimateParallel on one machine — and a
// dead worker's range can be reassigned mid-job to any other worker,
// which fast-forwards past the already-merged blocks and reproduces the
// remainder exactly.
//
// Protocol (all JSON over HTTP, worker side):
//
//	GET  /healthz      liveness + load gauges (heartbeat target)
//	GET  /readyz       readiness
//	POST /v1/circuits  install a circuit by provenance {hash, source}
//	POST /v1/run       stream one replication range's sample blocks
//
// /v1/run responds with newline-delimited JSON: a StreamHeader line
// carrying the derived cadence, which the coordinator checks against
// its merger's, then one core.ReplicationBlock line per round-block
// until the job's block budget (core.MaxBlocks) or client disconnect.
// A worker refuses, with 400, a request whose stream the job's own
// options do not allow (core.Stream.Validate), whose options exceed the
// submit bounds, or whose body carries a key the protocol does not
// have (RunRequest.Validate, service.DecodeJSON). Circuits are
// content-addressed by provenance hash (service.HashSource); a run for
// an unknown hash fails with 404 and the coordinator uploads the
// provenance it was handed with the job (builtin benchmark name, or the
// original netlist text) before retrying, once per job and worker: the
// job's other ranges that miss it wait for that install. Workers
// rebuild it with the registry's own builder
// (service.CircuitSource.Testbench), so they hold the exact frozen
// circuit phase 1 ran on, and no re-serialization can
// perturb node order or float summation. A worker accepts an install
// body up to six times the service's upload bound, the worst growth of
// the coordinator's re-encoding, so every accepted upload installs; a
// worker that refuses an install (a 4xx) fails the job with its
// message, and stays in rotation.
package cluster
