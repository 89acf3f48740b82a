package core

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// This file splits the parallel estimator at its natural checkpoint
// boundary: everything that happens before the first phase-2 sample —
// interval selection and variance-reduction plan resolution — is frozen
// into a ResumePoint, and the sampling/stopping tail can be (re)started
// from one. The split is what makes estimation jobs durable: the
// prepare hook of EstimateParallelFrom returns the point, a job store
// journals it inside that hook, before the first block, and a restarted
// server's hook returns the journaled point, so it re-enters the
// sampling phase directly. Determinism does the rest — replaying the
// tail from the same ResumePoint with the same seeds reproduces the
// interrupted run's samples bit for bit, so a resumed job's Result
// equals the Result the uninterrupted run would have produced.
//
// Neither run is literally prepare-then-sample: the tail's warm-up from
// reset depends only on the seed and the options, so
// EstimateParallelFrom runs it beside the hook on a goroutine of its
// own and joins it before the first block. The overlap moves no bit of
// the Result, and the resumed run still equals the uninterrupted one.

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
		if err := stepHidden(ctx, opts.WarmupCycles, sel0.StepHiddenN); err != nil {
			return ResumePoint{}, err
		}
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

// EstimateParallelResumeCtx is EstimateParallelFrom with a hook that
// returns rp: it samples at rp's interval under rp's plan and restores
// rp's cycle counters into the Result. PreparePlanCtx followed by
// EstimateParallelResumeCtx is exactly EstimateParallelCtx, and
// determinism makes the resumed Result bit-identical to the
// uninterrupted one. The service resumes a journaled job through
// EstimateParallelFrom with a hook of its own; this form is for
// callers that already hold a point.
func EstimateParallelResumeCtx(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, rp ResumePoint) (Result, error) {
	return EstimateParallelFrom(ctx, tb, src, baseSeed, opts, func() (ResumePoint, error) { return rp, nil })
}
