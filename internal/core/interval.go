package core

import (
	"context"
	"fmt"
	"math"

	"repro/internal/netlist"
	"repro/internal/randtest"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/vr"
)

// Trial records one iteration of the independence-interval selection
// procedure (one pass around the loop of Fig. 2).
type Trial struct {
	Interval   int     // trial interval k, in clock cycles
	Z          float64 // runs-test statistic on the collected sequence
	PValue     float64
	Accepted   bool
	Degenerate bool
}

// IntervalSelection is the outcome of the Fig. 2 procedure.
type IntervalSelection struct {
	Interval int     // the selected independence interval
	Capped   bool    // true if MaxInterval was reached without acceptance
	Trials   []Trial // one entry per trial interval, in order
	// Sequence is the power sequence that passed the test (watts per
	// cycle); with Options.ReuseTestSamples it seeds the stopping
	// criterion.
	Sequence []float64
	// Covariates holds the same-cycle zero-delay toggle powers aligned
	// with Sequence. It is collected only under the control-variate
	// options (Options.Variance), where the accepted sequence doubles as
	// the regression-calibration data for the coefficient; nil otherwise.
	// Observing the covariate does not perturb the session trajectory,
	// so Sequence is bit-identical with and without it.
	Covariates []float64
	// Toggles holds the per-node transition counts of the accepted
	// sequence (indexed by NodeID), collected only under
	// Options.Breakdown. When the sequence seeds the stopping criterion
	// (Options.ReuseTestSamples) these counts seed the attribution
	// accumulator the same way, keeping the breakdown's dynamic total
	// equal to the estimate. Counting does not perturb the trajectory.
	Toggles []uint64
}

// Collector is a single trajectory that phase 1 collects power
// sequences from. *sim.Session (the compiled engine every estimator
// runs) and *sim.ScalarSession (its test oracle) both satisfy it with
// bit-identical samples.
type Collector interface {
	// Circuit returns the simulated circuit.
	Circuit() *netlist.Circuit
	// Collect appends n power samples to dst, each taken after k hidden
	// cycles; a non-nil cov also receives each cycle's zero-delay toggle
	// power, and a non-nil counts accumulates per-node transitions. It
	// polls ctx between batches of samples and returns ctx.Err() once
	// ctx ends.
	Collect(ctx context.Context, k, n int, dst, cov []float64, counts []uint64) ([]float64, []float64, error)
}

// collectSequence gathers n power samples, separated by k hidden
// (zero-delay) cycles each, into dst. The one Collect call polls ctx
// between settle batches and returns early with ctx.Err() when
// cancelled, so one trial on a large circuit cannot pin a worker past a
// cancellation request.
func collectSequence(ctx context.Context, s Collector, k, n int, dst []float64) ([]float64, error) {
	dst, _, err := collectSequencePairs(ctx, s, k, n, dst, nil, nil)
	return dst, err
}

// collectSequencePairs is collectSequence with an optional covariate
// buffer: when cov is non-nil it also records each cycle's zero-delay
// toggle power, leaving the sample values and the trajectory
// bit-identical to the plain collection. A non-nil counts buffer (len
// NumNodes) is zeroed and accumulates the sequence's per-node transition
// counts, so after an accepted trial it holds exactly the accepted
// sequence's toggles. The whole trial is one Collect, so a session
// settles its batches beside the trajectory (sim.Session).
func collectSequencePairs(ctx context.Context, s Collector, k, n int, dst, cov []float64, counts []uint64) ([]float64, []float64, error) {
	dst = dst[:0]
	if cov != nil {
		cov = cov[:0]
	}
	clear(counts)
	return s.Collect(ctx, k, n, dst, cov, counts)
}

// SelectInterval runs the sequential procedure of Fig. 2 on a trajectory:
// starting from trial interval 0, collect a power sequence of length
// opts.SeqLen whose adjacent samples are separated by the trial interval,
// apply the randomness test, and increment the interval until the
// randomness hypothesis is accepted at significance opts.Alpha.
func SelectInterval(s Collector, opts Options) (IntervalSelection, error) {
	return SelectIntervalCtx(context.Background(), s, opts)
}

// SelectIntervalCtx is SelectInterval with cancellation: the collection
// loop polls ctx every few samples (each trial collects opts.SeqLen of
// them) and returns ctx.Err() when cancelled. The dipe-server job
// manager relies on this to abort jobs that are still selecting an
// interval on a large uploaded circuit.
func SelectIntervalCtx(ctx context.Context, s Collector, opts Options) (IntervalSelection, error) {
	if err := opts.Validate(); err != nil {
		return IntervalSelection{}, err
	}
	sel := IntervalSelection{}
	seq := make([]float64, 0, opts.SeqLen)
	// Under the control-variate transform the accepted sequence is also
	// the regression-calibration data, so every trial records covariates
	// alongside the samples.
	var cov []float64
	if opts.Variance.Mode.Canonical() == vr.ModeControlVariate {
		cov = make([]float64, 0, opts.SeqLen)
	}
	// Under Options.Breakdown every trial counts per-node transitions;
	// collectSequencePairs zeroes the buffer per trial, so the accepted
	// trial leaves exactly its own sequence's counts behind.
	var counts []uint64
	if opts.Breakdown {
		counts = make([]uint64, s.Circuit().NumNodes())
	}
	finish := func() IntervalSelection {
		sel.Sequence = append([]float64(nil), seq...)
		if cov != nil {
			sel.Covariates = append([]float64(nil), cov...)
		}
		if counts != nil {
			sel.Toggles = append([]uint64(nil), counts...)
		}
		return sel
	}
	for k := 0; ; k++ {
		var err error
		seq, cov, err = collectSequencePairs(ctx, s, k, opts.SeqLen, seq, cov, counts)
		if err != nil {
			return IntervalSelection{}, err
		}
		res := opts.Test.Apply(seq)
		accepted := res.Accept(opts.Alpha)
		sel.Trials = append(sel.Trials, Trial{
			Interval:   k,
			Z:          res.Z,
			PValue:     res.PValue,
			Accepted:   accepted,
			Degenerate: res.Degenerate,
		})
		if accepted {
			sel.Interval = k
			return finish(), nil
		}
		if k >= opts.MaxInterval {
			sel.Interval = opts.MaxInterval
			sel.Capped = true
			return finish(), nil
		}
	}
}

// ZPoint is one point of the Fig. 3 curve: the runs-test z statistic of a
// fresh power sequence collected at a given trial interval.
type ZPoint struct {
	Interval int
	Z        float64 // signed statistic (positive correlation gives z < 0)
	AbsZ     float64 // magnitude, the quantity Fig. 3 plots
	Accepted bool    // acceptance at the options' significance level
}

// ZTrace reproduces the data behind Fig. 3: for each trial interval
// k = 0..maxK it collects a fresh power sequence of length seqLen on the
// session and records the runs-test statistic. The paper's figure uses
// s1494 with seqLen = 10000.
func ZTrace(s *sim.Session, opts Options, maxK, seqLen int) ([]ZPoint, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if seqLen < 32 {
		return nil, fmt.Errorf("core: ZTrace sequence length %d too short", seqLen)
	}
	if maxK < 0 {
		return nil, fmt.Errorf("core: ZTrace maxK %d negative", maxK)
	}
	out := make([]ZPoint, 0, maxK+1)
	seq := make([]float64, 0, seqLen)
	for k := 0; k <= maxK; k++ {
		seq, _ = collectSequence(context.Background(), s, k, seqLen, seq)
		res := opts.Test.Apply(seq)
		out = append(out, ZPoint{
			Interval: k,
			Z:        res.Z,
			AbsZ:     math.Abs(res.Z),
			Accepted: res.Accept(opts.Alpha),
		})
	}
	return out, nil
}

// Diagnostics is a post-hoc health report on a power sample collected at
// a fixed interval: does it actually look i.i.d.? The paper's procedure
// guarantees this only at the chosen significance level; the diagnostics
// let a user audit a finished run with independent evidence (a fresh
// sequence, a battery of tests, and the autocorrelation function).
type Diagnostics struct {
	Interval int
	// Tests holds the outcome of each randomness test on the fresh
	// sequence.
	Tests []randtest.Result
	// ACF is the sample autocorrelation function of the sequence up to
	// lag 10 (ACF[0] == 1).
	ACF []float64
	// Mean and CV summarize the sequence.
	Mean float64
	CV   float64
}

// Diagnose collects a fresh power sequence of length n at the given
// interval on the session and audits it with the standard battery
// (ordinary runs, runs up/down, von Neumann, Ljung–Box).
func Diagnose(s *sim.Session, interval, n int) (Diagnostics, error) {
	if interval < 0 || n < 32 {
		return Diagnostics{}, fmt.Errorf("core: Diagnose needs interval >= 0 and n >= 32 (got %d, %d)", interval, n)
	}
	seq, _ := collectSequence(context.Background(), s, interval, n, make([]float64, 0, n))
	battery := []randtest.Test{
		randtest.OrdinaryRuns{}, randtest.UpDownRuns{}, randtest.VonNeumann{}, randtest.LjungBox{},
	}
	d := Diagnostics{Interval: interval, ACF: stats.Autocorrelation(seq, 10)}
	for _, t := range battery {
		d.Tests = append(d.Tests, t.Apply(seq))
	}
	var acc stats.Accumulator
	for _, p := range seq {
		acc.Add(p)
	}
	d.Mean = acc.Mean()
	d.CV = acc.CV()
	return d, nil
}
