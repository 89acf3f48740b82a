// Package core implements the paper's contribution: DIPE, the
// distribution-independent statistical power estimator for sequential
// circuits.
//
// The estimation flow follows Fig. 1 of the paper:
//
//  1. Load the circuit, timing model and power model (Testbench).
//  2. Select an independence interval m with a sequential procedure
//     built on a randomness test (Fig. 2; SelectInterval).
//  3. Generate a random power sample two-phase: m zero-delay cycles
//     between sampled cycles, each sampled cycle simulated with the
//     event-driven general-delay simulator. A sim.Session drives the
//     trajectory on the circuit's compiled programs.
//  4. Feed samples to a distribution-independent stopping criterion and
//     stop when the accuracy specification is met (Estimate).
//
// Interval selection implements Section III (Fig. 2's sequential
// procedure over the runs test); the sampling/stopping phase implements
// Section IV. EstimateParallel runs the same flow with many independent
// replications advanced concurrently on the lane-parallel simulators,
// with deterministic seeding and merge order. Its sampling phase has one
// block producer, which steps a replication range through rounds of
// hidden and sampled cycles, and one merge loop (Tail), which owns the
// stopping rule and builds the Result; the cluster coordinator feeds
// the same loop from worker streams of the same producer
// (StreamReplications). A Stream is one replication range of that
// phase; Tail.Stream hands them out, and one Validate decides which
// streams a job's options allow, for a worker's request and the
// in-process run alike, while the block cadence (BlockRounds) and
// budget (MaxBlocks) derive from the options wherever they are needed.
// One rule, Ranges, lays the replications out in
// shards and cluster ranges from the options alone: the unit of work is
// a word row of 64 lanes when sampled cycles are observed word-parallel,
// since a compiled pass costs per row, and one lane otherwise.
// GOMAXPROCS goroutines step the shards; no layout changes a result.
// Because neither the layout nor the replications' warm-up from reset
// depends on the interval phase 1 selects, every in-process parallel
// estimate runs one lifecycle, EstimateParallelFrom: build the shards,
// warm them on a goroutine of its own beside a prepare hook that runs
// (or restores) phase 1, and bind the interval and plan once they are
// frozen; the service's job manager journals its checkpoint inside
// that hook. Every
// estimator runs phase 1 (warm-up and Fig. 2), and the serial
// estimators also their sampling phase, on one compiled sim.Session.
// SelectInterval takes any Collector, so tests can run it on the
// interpreted sim.ScalarSession oracle, which gives bit-identical
// samples. The Ctx variants add
// cooperative cancellation (covering the warm-ups and interval
// selection too: every bulk warm-up polls its context every 1024
// cycles), and Options.Progress streams running snapshots
// with a guaranteed terminal snapshot — the hooks the dipe-server job
// manager is built on.
//
// Options.Mode selects the power-observation scenario (power.PowerMode):
// the default general-delay mode observes sampled cycles with per-lane
// event-driven simulation, the zero-delay mode with word-parallel packed
// transition counting, making sampled cycles as cheap as hidden ones.
// Result.Engine and Result.DelayModel record what a run actually used.
//
// Options.Variance selects a variance-reduction transform (vr.Spec):
// antithetic replication pairing or a control-variate correction by the
// same-cycle zero-delay toggle power. ResolvePlan freezes the transform
// into a vr.Plan after interval selection — regression-estimating the
// coefficient from the phase-1 sequence and the covariate mean from a
// compiled 64-lane pre-run — and both the in-process estimator and the
// cluster coordinator apply the identical plan, keeping distributed runs
// bit-identical. The Merger folds antithetic rounds to pair means, so
// pairing is a pure function of the canonical merge order.
package core
