package core

import (
	"context"
	"fmt"

	"repro/internal/sim"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// This file resolves Options.Variance (user intent) into a vr.Plan (the
// frozen transform the sampled phase applies). Resolution happens once
// per run, after interval selection and before any phase-2 sample is
// drawn, on the process that owns the stopping decision — the
// single-process estimator or the cluster coordinator. The resolved
// plan is pure data; workers receive it over the wire and apply it
// verbatim, so an N-worker run transforms every sample exactly as the
// local estimator would.

// controlSeedOffset separates the covariate-mean pre-run's lane seeds
// from the replication seeds (baseSeed+1+r). A collision would need
// more than a billion replications.
const controlSeedOffset = 1_000_000_007

// CalCost tallies the simulation cycles spent resolving a plan, split
// by cost class like Result's counters: the control-mean pre-run is
// pure zero-delay sweeps (hidden-cycle rates, counted as hidden), and a
// dedicated beta-calibration sequence — only run when no phase-1
// selection data exists — costs sampled cycles like a selection trial.
type CalCost struct {
	Hidden  uint64
	Sampled uint64
}

// ResolvePlan freezes the variance-reduction plan for a run sampling at
// the given independence interval. sel carries the phase-1 selection
// outcome when one ran (nil for fixed-interval runs). It returns the
// plan, the sample sequence that should seed the stopping criterion
// under Options.ReuseTestSamples (the accepted phase-1 sequence,
// control-variate-transformed when the plan corrects samples; nil when
// sel is nil), and the calibration cost.
//
// Control-variate resolution estimates the coefficient by regressing
// the phase-1 (sample, covariate) pairs — or, for fixed-interval runs,
// a dedicated SeqLen-pair calibration sequence on a compiled trajectory
// seeded baseSeed, the seed selection would have used — and the
// covariate mean from a compiled zero-delay pre-run over dedicated lane
// seeds. Everything is seeded deterministically, so two resolutions
// with the same inputs produce bit-identical plans.
func ResolvePlan(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, interval int, sel *IntervalSelection) (vr.Plan, []float64, CalCost, error) {
	var seed []float64
	if sel != nil {
		seed = sel.Sequence
	}
	switch opts.Variance.Mode.Canonical() {
	case vr.ModeNone:
		return vr.Plan{}, seed, CalCost{}, nil

	case vr.ModeAntithetic:
		// Pre-flight the mirroring so shard construction cannot fail
		// mid-run on an unmirrorable source (e.g. a trace replay).
		if _, err := vectors.Antithetic(src(baseSeed)); err != nil {
			return vr.Plan{}, nil, CalCost{}, err
		}
		return vr.Plan{Mode: vr.ModeAntithetic}, seed, CalCost{}, nil

	case vr.ModeControlVariate:
		if tb.Delays.AllZero() {
			return vr.Plan{}, nil, CalCost{}, fmt.Errorf(
				"core: control variates need a non-zero delay table (the covariate would equal the sample)")
		}
		plan := vr.Plan{Mode: vr.ModeControlVariate}
		var cost CalCost
		if o := opts.Variance.BetaOverride; o != nil {
			plan.Beta = *o
		} else {
			xs, cs := []float64(nil), []float64(nil)
			if sel != nil && sel.Covariates != nil {
				xs, cs = sel.Sequence, sel.Covariates
			} else {
				// Fixed-interval run: no phase-1 data exists, so collect a
				// dedicated calibration sequence shaped like one selection
				// trial at the sampling interval.
				s := tb.NewSessionMode(src(baseSeed), opts.Mode)
				err := stepHidden(ctx, opts.WarmupCycles, s.StepHiddenN)
				if err == nil {
					xs, cs, err = collectSequencePairs(ctx, s, interval, opts.SeqLen,
						make([]float64, 0, opts.SeqLen), make([]float64, 0, opts.SeqLen), nil)
				}
				if err != nil {
					return vr.Plan{}, nil, CalCost{}, err
				}
				cost.Hidden += s.HiddenCycles
				cost.Sampled += s.SampledCycles
			}
			plan.Beta = vr.EstimateBeta(xs, cs)
		}
		if plan.Beta != 0 {
			mean, c, err := controlMean(ctx, tb, src, baseSeed, opts)
			if err != nil {
				return vr.Plan{}, nil, CalCost{}, err
			}
			plan.ControlMean = mean
			cost.Hidden += c.Hidden
			cost.Sampled += c.Sampled
		}
		if sel != nil && plan.NeedsCovariate() {
			// The criterion seed must follow the same law as the phase-2
			// samples: transform the accepted sequence with the frozen plan.
			if len(sel.Covariates) != len(sel.Sequence) {
				return vr.Plan{}, nil, CalCost{}, fmt.Errorf(
					"core: selection carries %d covariates for %d samples; control variates need the pair-collected selection",
					len(sel.Covariates), len(sel.Sequence))
			}
			y := make([]float64, len(sel.Sequence))
			for i, x := range sel.Sequence {
				y[i] = plan.Apply(x, sel.Covariates[i])
			}
			seed = y
		}
		return plan, seed, cost, nil
	}
	return vr.Plan{}, nil, CalCost{}, opts.Variance.Mode.Validate()
}

// controlMean estimates the covariate mean — the stationary per-cycle
// zero-delay toggle power — with a 64-lane compiled zero-delay pre-run
// over dedicated seeds. Lane powers are bit-identical to the packed
// interpreter's and are summed in lane order. The run costs hidden-cycle
// rates (one Full pass plus a diff pass per cycle) and is tallied
// entirely as hidden cycles. Its warm-up steps through stepHidden and
// its sampled cycles poll ctx every warmChunk cycles too; once ctx
// ends it returns its error with the cycles run so far.
func controlMean(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options) (float64, CalCost, error) {
	cycles := opts.Variance.ControlCycles
	if cycles == 0 {
		cycles = vr.DefaultControlCycles
	}
	srcs := make([]vectors.Source, sim.MaxLanes)
	for k := range srcs {
		srcs[k] = src(baseSeed + controlSeedOffset + int64(k))
	}
	ps := sim.NewCompiledSession(tb.Circuit, nil, srcs)
	cost := func() CalCost {
		hidden, sampled := ps.CycleCounts()
		return CalCost{Hidden: hidden + sampled}
	}
	if err := stepHidden(ctx, opts.WarmupCycles, ps.StepHiddenN); err != nil {
		return 0, cost(), err
	}
	weights := tb.Weights()
	powers := make([]float64, sim.MaxLanes)
	var sum float64
	for i := 0; i < cycles; i++ {
		if i%warmChunk == 0 {
			if err := ctx.Err(); err != nil {
				return 0, cost(), err
			}
		}
		ps.StepSampled(weights, powers)
		for _, p := range powers {
			sum += p
		}
	}
	return sum / float64(cycles*sim.MaxLanes), cost(), nil
}

// replicationSource builds replication r's input source: the fixed
// seeding factory(baseSeed+1+r), except that antithetic pairing gives
// every odd replication the mirrored twin of its even partner's source.
// The mapping depends only on the global replication index, so any
// partition of the replication space — goroutine shards, worker
// processes, a reassignment after a worker death — reproduces the same
// per-replication streams.
func replicationSource(src vectors.Factory, baseSeed int64, r int, pairing bool) (vectors.Source, error) {
	if pairing && r%2 == 1 {
		return vectors.Antithetic(src(baseSeed + int64(r))) // the r-1 partner's seed
	}
	return src(baseSeed + 1 + int64(r)), nil
}
