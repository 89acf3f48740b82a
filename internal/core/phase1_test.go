package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/bench89"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// scalarResumePoint replays the pre-sampling phases on the
// sim.ScalarSession oracle: StepHiddenN(WarmupCycles), then
// SelectIntervalCtx and ResolvePlan. A fixed-interval control-variate
// run's calibration sequence is collected on the scalar session too and
// handed to ResolvePlan as the coefficient, so no phase-1 sample of the
// replay comes from the compiled session.
func scalarResumePoint(t *testing.T, tb *Testbench, factory vectors.Factory, seed int64, opts Options, fixed *int) ResumePoint {
	t.Helper()
	ctx := context.Background()
	var rp ResumePoint
	var sel *IntervalSelection
	s := sim.NewScalarSession(tb.Circuit, tb.Engine(opts.Mode), factory(seed), tb.Weights())
	if fixed != nil {
		rp.Interval = *fixed
		if opts.Variance.Mode.Canonical() == vr.ModeControlVariate && opts.Variance.BetaOverride == nil {
			s.StepHiddenN(opts.WarmupCycles)
			xs, cs := s.Collect(*fixed, opts.SeqLen, nil, []float64{}, nil)
			beta := vr.EstimateBeta(xs, cs)
			opts.Variance.BetaOverride = &beta
		}
	} else {
		s.StepHiddenN(opts.WarmupCycles)
		got, err := SelectIntervalCtx(ctx, s, opts)
		if err != nil {
			t.Fatal(err)
		}
		sel = &got
		rp.Interval, rp.Capped, rp.Trials, rp.SeedToggles = got.Interval, got.Capped, got.Trials, got.Toggles
	}
	rp.Hidden, rp.Sampled = s.HiddenCycles, s.SampledCycles
	plan, seedSeq, cost, err := ResolvePlan(ctx, tb, factory, seed, opts, rp.Interval, sel)
	if err != nil {
		t.Fatal(err)
	}
	rp.Plan, rp.SeedSeq = plan, seedSeq
	rp.Hidden += cost.Hidden
	rp.Sampled += cost.Sampled
	return rp
}

// sameBits reports whether two float slices are bit-identical.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestPreparePlanMatchesScalarSequence: PreparePlanCtx, whose phase 1
// runs on the compiled session, freezes the same ResumePoint as the
// scalar-session sequence the bench decomposition replays, in every
// estimator mode that reaches phase 1 or the calibration.
func TestPreparePlanMatchesScalarSequence(t *testing.T) {
	fixed := 3
	modes := []struct {
		name  string
		set   func(*Options)
		fixed *int
	}{
		{"zd", func(o *Options) { o.Mode = power.ModeZeroDelay }, nil},
		{"gd", func(*Options) {}, nil},
		{"cv", func(o *Options) { o.Variance = vr.Spec{Mode: vr.ModeControlVariate, ControlCycles: 256} }, nil},
		{"anti", func(o *Options) { o.Variance = vr.Spec{Mode: vr.ModeAntithetic} }, nil},
		{"breakdown", func(o *Options) { o.Breakdown = true }, nil},
		{"fixed-cv", func(o *Options) { o.Variance = vr.Spec{Mode: vr.ModeControlVariate, ControlCycles: 256} }, &fixed},
	}
	for _, name := range []string{"s298", "s1494"} {
		c := bench89.MustGet(name)
		tb := DefaultTestbench(c)
		factory := vectors.IIDFactory(len(c.Inputs), 0.5)
		for _, m := range modes {
			m := m
			t.Run(name+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				opts := DefaultOptions()
				opts.Replications = 16
				m.set(&opts)
				got, err := PreparePlanCtx(context.Background(), tb, factory, 9, opts, m.fixed)
				if err != nil {
					t.Fatal(err)
				}
				want := scalarResumePoint(t, tb, factory, 9, opts, m.fixed)
				if got.Interval != want.Interval || got.Capped != want.Capped {
					t.Fatalf("interval %d (capped %v), scalar %d (capped %v)", got.Interval, got.Capped, want.Interval, want.Capped)
				}
				if len(got.Trials) != len(want.Trials) {
					t.Fatalf("%d trials, scalar %d", len(got.Trials), len(want.Trials))
				}
				for i, tr := range got.Trials {
					w := want.Trials[i]
					if tr.Interval != w.Interval || tr.Accepted != w.Accepted || tr.Degenerate != w.Degenerate ||
						math.Float64bits(tr.Z) != math.Float64bits(w.Z) || math.Float64bits(tr.PValue) != math.Float64bits(w.PValue) {
						t.Fatalf("trial %d: %+v, scalar %+v", i, tr, w)
					}
				}
				if !sameBits(got.SeedSeq, want.SeedSeq) {
					t.Fatal("SeedSeq differs from the scalar sequence")
				}
				if len(got.SeedToggles) != len(want.SeedToggles) {
					t.Fatalf("%d seed toggles, scalar %d", len(got.SeedToggles), len(want.SeedToggles))
				}
				for i := range got.SeedToggles {
					if got.SeedToggles[i] != want.SeedToggles[i] {
						t.Fatalf("seed toggles of node %d: %d, scalar %d", i, got.SeedToggles[i], want.SeedToggles[i])
					}
				}
				if got.Plan.Mode != want.Plan.Mode ||
					math.Float64bits(got.Plan.Beta) != math.Float64bits(want.Plan.Beta) ||
					math.Float64bits(got.Plan.ControlMean) != math.Float64bits(want.Plan.ControlMean) {
					t.Fatalf("plan %+v, scalar %+v", got.Plan, want.Plan)
				}
				if got.Hidden != want.Hidden || got.Sampled != want.Sampled {
					t.Fatalf("cycles %d+%d, scalar %d+%d", got.Hidden, got.Sampled, want.Hidden, want.Sampled)
				}
			})
		}
	}
}

// TestPreparePlanCancelled: a cancelled context stops phase 1 on the
// session with context.Canceled.
func TestPreparePlanCancelled(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := PreparePlanCtx(ctx, tb, vectors.IIDFactory(len(c.Inputs), 0.5), 1, DefaultOptions(), nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("PreparePlanCtx error = %v, want context.Canceled", err)
	}
}

// packedControlMean is the covariate-mean pre-run on the interpreted
// packed session: the reference the compiled pre-run must match.
func packedControlMean(tb *Testbench, src vectors.Factory, baseSeed int64, opts Options) float64 {
	srcs := make([]vectors.Source, sim.MaxLanes)
	for k := range srcs {
		srcs[k] = src(baseSeed + controlSeedOffset + int64(k))
	}
	ps := sim.NewPackedSession(tb.Circuit, srcs)
	ps.StepHiddenN(opts.WarmupCycles)
	powers := make([]float64, sim.MaxLanes)
	var sum float64
	for i := 0; i < opts.Variance.ControlCycles; i++ {
		ps.StepSampled(tb.Weights(), powers)
		for _, p := range powers {
			sum += p
		}
	}
	return sum / float64(opts.Variance.ControlCycles*sim.MaxLanes)
}

// TestControlMeanMatchesPacked: the control-variate plan's covariate
// mean, now from a compiled pre-run, has the packed pre-run's bits.
func TestControlMeanMatchesPacked(t *testing.T) {
	for _, name := range []string{"s832", "s1494"} {
		c := bench89.MustGet(name)
		tb := DefaultTestbench(c)
		factory := vectors.IIDFactory(len(c.Inputs), 0.5)
		opts := DefaultOptions()
		opts.Replications = 16
		opts.Variance = vr.Spec{Mode: vr.ModeControlVariate, ControlCycles: 512}
		rp, err := PreparePlanCtx(context.Background(), tb, factory, 5, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Plan.Beta == 0 {
			t.Fatalf("%s: zero coefficient, no pre-run to compare", name)
		}
		want := packedControlMean(tb, factory, 5, opts)
		if math.Float64bits(rp.Plan.ControlMean) != math.Float64bits(want) {
			t.Fatalf("%s: control mean %v, packed %v", name, rp.Plan.ControlMean, want)
		}
	}
}
