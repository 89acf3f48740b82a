package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/vr"
)

// Result is the outcome of one estimation run (one row of Table 1).
type Result struct {
	// Power is the average power estimate in watts.
	Power float64
	// Interval is the independence interval used (the paper's "I.I.").
	Interval int
	// IntervalCapped marks runs where selection hit MaxInterval.
	IntervalCapped bool
	// Trials documents the interval-selection iterations.
	Trials []Trial
	// SampleSize is the number of power samples consumed by the stopping
	// criterion (the paper's "Sample Size").
	SampleSize int
	// HalfWidth is the criterion's final confidence half-width in watts.
	HalfWidth float64
	// HiddenCycles and SampledCycles are the simulation cost split by
	// phase; their sum is the total simulated clock cycles.
	HiddenCycles  uint64
	SampledCycles uint64
	// Elapsed is the wall-clock time of the run.
	Elapsed time.Duration
	// Criterion names the stopping criterion used.
	Criterion string
	// Engine names what observed the sampled cycles:
	// sim.EngineEventDriven for general-delay observation (on a
	// session's event-driven lane engine, bit-identical to
	// sim.EventDriven per lane), sim.EngineZeroDelay for a serial
	// zero-delay session, or sim.EngineCompiledZeroDelay when the
	// parallel estimators observed them by the toggle diff of the
	// compiled lane session.
	Engine string
	// DelayModel names the timing model the engine realized ("zero" for
	// zero-delay observation).
	DelayModel string
	// Variance names the variance-reduction transform the sampling phase
	// ran under ("" for the plain estimator; see internal/vr). Under
	// "antithetic", SampleSize counts the pair means the criterion
	// consumed, each of which costs two sampled cycles.
	Variance string
	// CVBeta is the resolved control-variate coefficient (0 outside
	// control-variate runs).
	CVBeta float64
	// Breakdown is the per-node power attribution report (nil unless
	// Options.Breakdown). Its dynamic column totals the scalar estimate
	// in the plain estimator mode; see power.BreakdownReport.
	Breakdown *power.BreakdownReport
	// Converged is false only if MaxSamples was exhausted first.
	Converged bool
}

// RelHalfWidth returns HalfWidth relative to the estimate.
func (r Result) RelHalfWidth() float64 {
	if r.Power == 0 {
		return 0
	}
	return r.HalfWidth / r.Power
}

// TotalCycles returns the total number of simulated clock cycles.
func (r Result) TotalCycles() uint64 { return r.HiddenCycles + r.SampledCycles }

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("P=%.4g W, II=%d, n=%d, half-width=%.2f%%, cycles=%d, %s",
		r.Power, r.Interval, r.SampleSize, 100*r.RelHalfWidth(), r.TotalCycles(), r.Elapsed)
}

// Estimate runs the full DIPE flow of Fig. 1 on a session: warm-up,
// independence-interval selection, then two-phase random sampling until
// the stopping criterion reports convergence.
func Estimate(s *sim.Session, opts Options) (Result, error) {
	return EstimateCtx(context.Background(), s, opts)
}

// EstimateCtx is Estimate with cancellation: the warm-up (stepHidden),
// interval selection (SelectIntervalCtx) and the sampling loop poll
// ctx. Cancellation during the warm-up or selection returns ctx.Err()
// with an empty result; cancellation during sampling returns the
// partial (unconverged) result together with ctx.Err().
func EstimateCtx(ctx context.Context, s *sim.Session, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if err := rejectVariance(opts); err != nil {
		return Result{}, err
	}
	start := time.Now()
	s.ResetCounters()
	if err := stepHidden(ctx, opts.WarmupCycles, s.StepHiddenN); err != nil {
		return Result{}, err
	}

	sel, err := SelectIntervalCtx(ctx, s, opts)
	if err != nil {
		return Result{}, err
	}
	res, err := estimateTail(ctx, s, opts, sel.Interval, sel.Sequence)
	res.Trials = sel.Trials
	res.IntervalCapped = sel.Capped
	res.Elapsed = time.Since(start)
	return res, err
}

// EstimateWithInterval skips interval selection and samples at a fixed
// interval. It implements the fixed-warm-up baseline (the paper's ref
// [9], Chou et al.) that DIPE's dynamic selection is compared against in
// the warm-up ablation; interval 0 gives the naive consecutive-cycle
// estimator that ignores temporal correlation.
func EstimateWithInterval(s *sim.Session, opts Options, interval int) (Result, error) {
	return EstimateWithIntervalCtx(context.Background(), s, opts, interval)
}

// EstimateWithIntervalCtx is EstimateWithInterval with cancellation (see
// EstimateCtx).
func EstimateWithIntervalCtx(ctx context.Context, s *sim.Session, opts Options, interval int) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if err := rejectVariance(opts); err != nil {
		return Result{}, err
	}
	if interval < 0 {
		return Result{}, fmt.Errorf("core: negative interval %d", interval)
	}
	start := time.Now()
	s.ResetCounters()
	if err := stepHidden(ctx, opts.WarmupCycles, s.StepHiddenN); err != nil {
		return Result{}, err
	}
	res, err := estimateTail(ctx, s, opts, interval, nil)
	res.Elapsed = time.Since(start)
	return res, err
}

// estimateTail runs the sampling/stopping phase at a fixed interval,
// optionally seeded with an already-collected random sequence. On
// cancellation it returns the partial result together with ctx.Err().
// The session observes under the delay model it was built for, and
// its labels (sim.Session.Engine) are recorded in the result.
func estimateTail(ctx context.Context, s *sim.Session, opts Options, interval int, seed []float64) (Result, error) {
	crit := opts.NewCriterion(opts.Spec)
	if opts.ReuseTestSamples {
		for _, p := range seed {
			crit.Add(p)
		}
	}
	engine, delayModel := s.Engine()
	result := func(converged bool) Result {
		// Every exit fires a final Progress snapshot so long-running
		// callers (the dipe-server job manager) never show a stale last
		// block after convergence, budget exhaustion or cancellation.
		if opts.Progress != nil {
			opts.Progress(Progress{
				Samples:   crit.N(),
				Power:     crit.Estimate(),
				HalfWidth: crit.HalfWidth(),
				Interval:  interval,
			})
		}
		return Result{
			Power:         crit.Estimate(),
			Interval:      interval,
			SampleSize:    crit.N(),
			HalfWidth:     crit.HalfWidth(),
			HiddenCycles:  s.HiddenCycles,
			SampledCycles: s.SampledCycles,
			Criterion:     crit.Name(),
			Engine:        engine,
			DelayModel:    delayModel,
			Converged:     converged,
		}
	}
	var buf []float64
	for !crit.Done() {
		if err := ctx.Err(); err != nil {
			return result(false), err
		}
		if crit.N()+opts.CheckEvery > opts.MaxSamples {
			return result(false), nil
		}
		buf, _ = s.Collect(interval, opts.CheckEvery, buf[:0], nil, nil)
		for _, p := range buf {
			crit.Add(p)
		}
		if opts.Progress != nil {
			opts.Progress(Progress{
				Samples:   crit.N(),
				Power:     crit.Estimate(),
				HalfWidth: crit.HalfWidth(),
				Interval:  interval,
			})
		}
	}
	return result(true), nil
}

// rejectVariance guards the serial estimators: the variance-reduction
// transforms are defined over the replication space (paired lanes,
// covariates frozen before a pooled phase 2) and only the parallel
// estimators realize them.
func rejectVariance(opts Options) error {
	if opts.Variance.Mode.Canonical() != vr.ModeNone {
		return fmt.Errorf("core: variance reduction (%s) requires the parallel estimator (EstimateParallel)",
			opts.Variance.Mode)
	}
	if opts.Breakdown {
		return fmt.Errorf("core: per-node breakdown requires the parallel estimator (EstimateParallel) — " +
			"the session-based estimators have no power model in scope to attribute against")
	}
	return nil
}
