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

// scalarEngine builds the scalar oracle engine of a power mode: the
// event-driven simulator over the testbench's delay table, or the
// zero-delay toggle engine.
func scalarEngine(tb *Testbench, mode power.PowerMode) sim.PowerEngine {
	if mode.IsZeroDelay() {
		return sim.NewZeroDelayToggle(tb.Circuit)
	}
	return sim.NewEventDriven(tb.Circuit, tb.Delays)
}

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
	s := sim.NewScalarSession(tb.Circuit, scalarEngine(tb, opts.Mode), factory(seed), tb.Weights())
	if fixed != nil {
		rp.Interval = *fixed
		if opts.Variance.Mode.Canonical() == vr.ModeControlVariate && opts.Variance.BetaOverride == nil {
			s.StepHiddenN(opts.WarmupCycles)
			xs, cs, _ := s.Collect(context.Background(), *fixed, opts.SeqLen, nil, []float64{}, nil)
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

// TestControlMeanStopsOnCancel: a job cancelled or drained during plan
// resolution stops the covariate-mean pre-run at the next chunk
// boundary instead of running all of its cycles. The cycles the pre-run
// reports are the judge, not the wall clock.
func TestControlMeanStopsOnCancel(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.WarmupCycles = warmChunk + warmChunk/2
	opts.Variance = vr.Spec{Mode: vr.ModeControlVariate, ControlCycles: 4 * warmChunk}
	lanes := uint64(sim.MaxLanes)
	_, cost, err := controlMean(context.Background(), tb, factory, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := lanes * uint64(opts.WarmupCycles+opts.Variance.ControlCycles); cost.Hidden != want {
		t.Fatalf("uncancelled pre-run ran %d lane cycles, want %d", cost.Hidden, want)
	}
	for polls, cycles := range map[int]int{0: 0, 1: warmChunk, 2: opts.WarmupCycles, 3: opts.WarmupCycles + warmChunk} {
		_, cost, err := controlMean(&pollBudget{Context: context.Background(), polls: polls}, tb, factory, 1, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%d polls: error %v, want context.Canceled", polls, err)
		}
		if want := lanes * uint64(cycles); cost.Hidden != want {
			t.Fatalf("pre-run cancelled after %d polls ran %d lane cycles, want %d", polls, cost.Hidden, want)
		}
	}
}

// TestPhase1WarmupStopsOnCancel: phase 1's bulk warm-ups, on the
// selection session, the fixed-interval calibration session and the
// serial estimators' session, poll their context every warmChunk
// cycles, as the tail's warm-up does. A context that ends after two
// polls stops an 8-chunk warm-up after two chunks with
// context.Canceled. The phase-1 source counts the patterns it draws,
// one per cycle, so the draws are the judge, not the wall clock.
func TestPhase1WarmupStopsOnCancel(t *testing.T) {
	c := bench89.S27()
	tb := DefaultTestbench(c)
	iid := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 8
	opts.WarmupCycles = 8 * warmChunk
	cv := opts
	cv.Variance.Mode = vr.ModeControlVariate
	fixed := 2
	const seed = 1
	cases := []struct {
		name string
		run  func(context.Context, vectors.Factory) error
	}{
		{"PreparePlanCtx", func(ctx context.Context, f vectors.Factory) error {
			_, err := PreparePlanCtx(ctx, tb, f, seed, opts, nil)
			return err
		}},
		{"fixed-interval calibration", func(ctx context.Context, f vectors.Factory) error {
			_, err := PreparePlanCtx(ctx, tb, f, seed, cv, &fixed)
			return err
		}},
		{"EstimateCtx", func(ctx context.Context, f vectors.Factory) error {
			_, err := EstimateCtx(ctx, tb.NewSessionMode(f(seed), opts.Mode), opts)
			return err
		}},
		{"EstimateWithIntervalCtx", func(ctx context.Context, f vectors.Factory) error {
			_, err := EstimateWithIntervalCtx(ctx, tb.NewSessionMode(f(seed), opts.Mode), opts, fixed)
			return err
		}},
	}
	probe := &hookSource{Source: iid(seed), hook: func(int) {}}
	tb.NewSessionMode(probe, opts.Mode)
	built := probe.n // patterns a session draws when it is built
	for _, tc := range cases {
		var phase1 *hookSource
		factory := func(s int64) vectors.Source {
			src := &hookSource{Source: iid(s), hook: func(int) {}}
			if s == seed {
				phase1 = src
			}
			return src
		}
		err := tc.run(&pollBudget{Context: context.Background(), polls: 2}, factory)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v, want context.Canceled", tc.name, err)
		}
		if got, want := phase1.n-built, 2*warmChunk; got != want {
			t.Errorf("%s: cancelled warm-up drew %d patterns, want %d", tc.name, got, want)
		}
	}
}
