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
// (StreamReplications). Every estimator runs phase 1 (warm-up and
// Fig. 2), and the serial estimators also their sampling phase, on one
// compiled sim.Session. SelectInterval takes any Collector, so tests
// can run it on the interpreted sim.ScalarSession oracle, which gives
// bit-identical samples. The Ctx variants add
// cooperative cancellation (covering interval selection too, via
// SelectIntervalCtx), and Options.Progress streams running snapshots
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
