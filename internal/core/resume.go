package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// This file splits the parallel estimator at its natural checkpoint
// boundary: everything that happens before the first phase-2 sample —
// interval selection and variance-reduction plan resolution — is frozen
// into a ResumePoint, and the sampling/stopping tail can be (re)started
// from one. The split is what makes estimation jobs durable: a job
// store can persist the ResumePoint once the pre-sampling phases have
// run, and a restarted server re-enters the sampling phase directly.
// Determinism does the rest — replaying the tail from the same
// ResumePoint with the same seeds reproduces the interrupted run's
// samples bit for bit, so a resumed job's Result equals the Result the
// uninterrupted run would have produced.

// ResumePoint is the frozen outcome of the pre-sampling phases of an
// EstimateParallel-shaped run: the selected (or fixed) independence
// interval, the resolved variance-reduction plan, the accepted phase-1
// sequence that seeds the stopping criterion under
// Options.ReuseTestSamples, and the simulation cycles those phases
// cost. It is pure data — JSON-serializable and process-independent.
type ResumePoint struct {
	// Interval is the independence interval the sampling phase runs at.
	Interval int `json:"interval"`
	// Capped marks a selection that hit Options.MaxInterval.
	Capped bool `json:"capped,omitempty"`
	// Trials documents the selection iterations (nil for fixed-interval
	// points and points restored from a persisted checkpoint).
	Trials []Trial `json:"-"`
	// SeedSeq is the accepted phase-1 power sequence (already
	// plan-transformed when the plan corrects samples); it seeds the
	// stopping criterion when Options.ReuseTestSamples is set.
	SeedSeq []float64 `json:"seedSeq,omitempty"`
	// SeedToggles is the accepted sequence's per-node transition counts
	// (indexed by NodeID), captured only under Options.Breakdown; it
	// seeds the attribution accumulator whenever SeedSeq seeds the
	// criterion, so a resumed breakdown stays bit-identical to an
	// uninterrupted one.
	SeedToggles []uint64 `json:"seedToggles,omitempty"`
	// Plan is the frozen variance-reduction plan.
	Plan vr.Plan `json:"plan,omitzero"`
	// Hidden and Sampled tally the simulation cycles the pre-sampling
	// phases cost; a resumed Result restores them so cycle counters stay
	// identical to the uninterrupted run.
	Hidden  uint64 `json:"hiddenCycles,omitempty"`
	Sampled uint64 `json:"sampledCycles,omitempty"`
}

// PreparePlanCtx runs the pre-sampling phases of an EstimateParallel
// run and freezes them into a ResumePoint. With fixed == nil, phase 1
// (warm-up and Fig. 2 interval selection) runs on a session seeded
// baseSeed (Testbench.NewSessionMode), the same phase 1 the serial
// estimators run; a non-nil fixed skips selection and pins the
// interval, exactly like EstimateParallelWithInterval. Plan resolution
// (ResolvePlan) follows in either case. Two calls with the same inputs
// produce bit-identical points — the determinism that makes persisted
// checkpoints safe to resume from.
func PreparePlanCtx(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, fixed *int) (ResumePoint, error) {
	if err := opts.Validate(); err != nil {
		return ResumePoint{}, err
	}
	var (
		rp  ResumePoint
		sel *IntervalSelection
	)
	tr := obs.TraceFrom(ctx)
	if fixed != nil {
		if *fixed < 0 {
			return ResumePoint{}, fmt.Errorf("core: negative interval %d", *fixed)
		}
		rp.Interval = *fixed
	} else {
		endSel := tr.Begin("select-interval")
		sel0 := tb.NewSessionMode(src(baseSeed), opts.Mode)
		sel0.StepHiddenN(opts.WarmupCycles)
		s, err := SelectIntervalCtx(ctx, sel0, opts)
		if err != nil {
			return ResumePoint{}, err
		}
		endSel()
		sel = &s
		rp.Interval, rp.Capped, rp.Trials = s.Interval, s.Capped, s.Trials
		rp.SeedToggles = s.Toggles
		rp.Hidden += sel0.HiddenCycles
		rp.Sampled += sel0.SampledCycles
	}
	endPlan := tr.Begin("plan-resolve", "interval", strconv.Itoa(rp.Interval))
	plan, seedSeq, cal, err := ResolvePlan(ctx, tb, src, baseSeed, opts, rp.Interval, sel)
	if err != nil {
		return ResumePoint{}, err
	}
	endPlan()
	rp.Plan, rp.SeedSeq = plan, seedSeq
	rp.Hidden += cal.Hidden
	rp.Sampled += cal.Sampled
	return rp, nil
}

// EstimateParallelResume runs the sampling/stopping tail of an
// EstimateParallel run from a frozen ResumePoint (see
// EstimateParallelResumeCtx).
func EstimateParallelResume(tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, rp ResumePoint) (Result, error) {
	return EstimateParallelResumeCtx(context.Background(), tb, src, baseSeed, opts, rp)
}

// EstimateParallelResumeCtx runs the sampling/stopping phase at rp's
// interval under rp's plan, restoring rp's cycle counters into the
// Result. PreparePlanCtx followed by EstimateParallelResumeCtx is
// exactly EstimateParallelCtx — the pair is how a durable job store
// resumes an interrupted run without repeating interval selection or
// plan calibration, and determinism guarantees the resumed Result is
// bit-identical to the uninterrupted one.
func EstimateParallelResumeCtx(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, rp ResumePoint) (Result, error) {
	start := time.Now()
	t, err := NewTail(tb, opts, rp)
	if err != nil {
		return Result{}, err
	}
	reps := t.Reps()
	run, err := newReplicationRun(tb, src, baseSeed, opts, rp.Plan, rp.Interval, 0, reps, t.Rounds())
	if err != nil {
		return Result{}, err
	}
	obs.TraceFrom(ctx).Event("shard",
		"shards", strconv.Itoa(len(run.shards)),
		"workers", strconv.Itoa(run.workers),
		"replications", strconv.Itoa(reps),
		"interval", strconv.Itoa(rp.Interval))
	run.warm(ctx, 0)
	// The producer runs in lockstep with the merge loop, so it simulates
	// exactly the rounds the merger consumes.
	res, err := t.Run(ctx, []int{reps}, func(b, n int) ([]ReplicationBlock, error) {
		return []ReplicationBlock{run.block(b, n, n)}, nil
	})
	res.Elapsed = time.Since(start)
	return res, err
}
