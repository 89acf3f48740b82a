// Package cluster shards the paper's estimation procedure across
// processes: a Coordinator partitions a job's independent replications
// into contiguous seed ranges by core.Ranges, the in-process shard
// layout rule (never below a word row of a word-parallel job, at most
// four ranges per live worker), streams their power samples back from
// stateless dipe-worker processes over HTTP, and feeds them to the
// same merge loop the single-process estimator runs (core.Tail) — so
// the two-phase stopping decision of the paper is made globally, on
// merged statistics, exactly as the single-process estimator makes it.
// A worker's stream is the single-process estimator's block producer
// (core.StreamReplications) pushed onto the wire.
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
// /v1/run responds with newline-delimited JSON: a StreamHeader line,
// then one core.ReplicationBlock line per round-block until MaxBlocks or
// client disconnect. A worker refuses, with 400, a request whose range
// or block cadence the job's own options do not allow, or whose options
// exceed the submit bounds (RunRequest.Validate). Circuits are content-addressed by provenance hash; a run
// for an unknown hash fails with 404 and the coordinator uploads the
// provenance (builtin benchmark name, or the original netlist text)
// before retrying — workers rebuild the exact frozen circuit the
// coordinator's registry holds, so no re-serialization can perturb node
// order or float summation.
package cluster
