package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/stopping"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// vrTestOptions is a compact configuration for the VR property tests:
// parallel replications, deterministic seeds.
func vrTestOptions() Options {
	opts := DefaultOptions()
	opts.Replications = 32
	opts.pool = 2
	return opts
}

func sameEstimate(t *testing.T, got, want Result, label string) {
	t.Helper()
	if got.Power != want.Power {
		t.Errorf("%s: power %v, want %v (bit-identical)", label, got.Power, want.Power)
	}
	if got.HalfWidth != want.HalfWidth {
		t.Errorf("%s: half-width %v, want %v", label, got.HalfWidth, want.HalfWidth)
	}
	if got.SampleSize != want.SampleSize {
		t.Errorf("%s: sample size %d, want %d", label, got.SampleSize, want.SampleSize)
	}
	if got.Interval != want.Interval {
		t.Errorf("%s: interval %d, want %d", label, got.Interval, want.Interval)
	}
	if got.HiddenCycles != want.HiddenCycles || got.SampledCycles != want.SampledCycles {
		t.Errorf("%s: cycles %d+%d, want %d+%d", label,
			got.HiddenCycles, got.SampledCycles, want.HiddenCycles, want.SampledCycles)
	}
}

// TestControlVariateZeroBetaDegeneracy: forcing the control-variate
// coefficient to 0 reproduces the plain estimator exactly — same
// samples, same stopping decision, same cycle counts — because
// Y = X bit-for-bit and no calibration pre-run happens. This pins the
// transform's unbiasedness anchor: the correction is strictly additive
// around the plain estimator.
func TestControlVariateZeroBetaDegeneracy(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	zero := 0.0

	for _, fixed := range []int{-1, 3} {
		opts := vrTestOptions()
		var plain, forced Result
		var err1, err2 error
		if fixed < 0 {
			plain, err1 = EstimateParallel(tb, factory, 42, opts)
			opts.Variance = vr.Spec{Mode: vr.ModeControlVariate, BetaOverride: &zero}
			forced, err2 = EstimateParallel(tb, factory, 42, opts)
		} else {
			plain, err1 = EstimateParallelWithInterval(tb, factory, 42, opts, fixed)
			opts.Variance = vr.Spec{Mode: vr.ModeControlVariate, BetaOverride: &zero}
			forced, err2 = EstimateParallelWithInterval(tb, factory, 42, opts, fixed)
		}
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		label := "dynamic"
		if fixed >= 0 {
			label = "fixed-interval"
		}
		sameEstimate(t, forced, plain, label)
		if forced.Variance != "control-variate" || forced.CVBeta != 0 {
			t.Errorf("%s: variance record %q beta %v", label, forced.Variance, forced.CVBeta)
		}
	}
}

// TestVRDeterminismAndWorkerInvariance: every VR mode is bit-repeatable
// and independent of the goroutine pool width, like the plain parallel
// estimator: 200 replications run as one shard at pool 1 and as four
// at pool 4.
func TestVRDeterminismAndWorkerInvariance(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)

	for _, mode := range []vr.Mode{vr.ModeAntithetic, vr.ModeControlVariate} {
		opts := vrTestOptions()
		opts.Replications = 200
		opts.Variance.Mode = mode
		opts.pool = 1
		a, one, err := estimateShards(t, tb, factory, 7, opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		opts.pool = 4
		b, four, err := estimateShards(t, tb, factory, 7, opts, nil)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		sameEstimate(t, b, a, string(mode)+" worker invariance")
		if b.CVBeta != a.CVBeta {
			t.Errorf("%s: cv beta %v, want %v", mode, b.CVBeta, a.CVBeta)
		}
		requireLayouts(t, string(mode), []int{one, four})
		if a.Variance != string(mode) {
			t.Errorf("%s: variance record %q", mode, a.Variance)
		}
	}
}

// TestVRNeverWidensHalfWidth: at an equal criterion-sample budget both
// transforms must tighten — never widen — the reported half-width on
// the Table-1 regression circuits. The comparison runs under the CLT
// (normal) criterion, whose half-width is a direct function of the
// sample variance the transforms act on; pair means always carry at
// most the raw per-sample variance ((1+rho)/2 <= 1) and the
// control-variate residual at most (1-rho^2) of it, so the ordering is
// a theorem up to variance-estimation noise — and the run is fully
// deterministic (fixed seeds, fixed interval, budget-bound).
func TestVRNeverWidensHalfWidth(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s832", "s1494"} {
		c := bench89.MustGet(name)
		tb := DefaultTestbench(c)
		factory := vectors.IIDFactory(len(c.Inputs), 0.5)
		opts := DefaultOptions()
		opts.Replications = 64
		opts.NewCriterion = stopping.NormalFactory
		opts.Spec.RelErr = 0.0001 // unreachable: the budget ends the run
		opts.MaxSamples = 4096 + 320
		opts.ReuseTestSamples = false

		run := func(mode vr.Mode) Result {
			o := opts
			o.Variance.Mode = mode
			res, err := EstimateParallelWithInterval(tb, factory, 7, o, 3)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, mode, err)
			}
			return res
		}
		plain := run(vr.ModeNone)
		for _, mode := range []vr.Mode{vr.ModeAntithetic, vr.ModeControlVariate} {
			res := run(mode)
			if res.SampleSize != plain.SampleSize {
				t.Fatalf("%s/%s: sample budget mismatch %d vs %d", name, mode, res.SampleSize, plain.SampleSize)
			}
			if res.HalfWidth > plain.HalfWidth {
				t.Errorf("%s/%s: half-width %v wider than plain %v", name, mode, res.HalfWidth, plain.HalfWidth)
			}
		}
	}
}

// TestControlVariateCutsSampledCycles: at the paper's accuracy target
// (5% at 0.99, general-delay, dynamic interval) the control variate
// reaches convergence on s1494 with at least 1.3x fewer sampled cycles
// than plain estimation. The runs are deterministic, so the assertion
// compares cycle counts, never time.
func TestControlVariateCutsSampledCycles(t *testing.T) {
	c := bench89.MustGet("s1494")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 64
	opts.Spec = stopping.Spec{RelErr: 0.05, Confidence: 0.99}

	run := func(mode vr.Mode) Result {
		o := opts
		o.Variance.Mode = mode
		res, err := EstimateParallel(tb, factory, 1997, o)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge (%d samples)", mode, res.SampleSize)
		}
		return res
	}
	plain := run(vr.ModeNone)
	cv := run(vr.ModeControlVariate)
	if 1.3*float64(cv.SampledCycles) > float64(plain.SampledCycles) {
		t.Errorf("control-variate sampled cycles %d, want <= plain %d / 1.3",
			cv.SampledCycles, plain.SampledCycles)
	}
	t.Logf("sampled cycles: plain %d, control-variate %d (%.2fx)",
		plain.SampledCycles, cv.SampledCycles, float64(plain.SampledCycles)/float64(cv.SampledCycles))
}

// TestAntitheticPairAccounting: antithetic runs consume two sampled
// cycles per criterion sample beyond the seeded sequence, and the
// sample budget rule respects the pair granularity.
func TestAntitheticPairAccounting(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 16
	opts.Spec.RelErr = 0.0001
	opts.MaxSamples = 1024
	opts.ReuseTestSamples = false
	opts.Variance.Mode = vr.ModeAntithetic

	res, err := EstimateParallelWithInterval(tb, factory, 3, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("unreachable spec converged")
	}
	if res.SampleSize > opts.MaxSamples {
		t.Fatalf("criterion consumed %d samples over budget %d", res.SampleSize, opts.MaxSamples)
	}
	if got, want := res.SampledCycles, uint64(2*res.SampleSize); got != want {
		t.Fatalf("sampled cycles %d, want %d (two per pair mean)", got, want)
	}
	if res.Variance != "antithetic" {
		t.Fatalf("variance record %q", res.Variance)
	}
}

// TestMergerPairingSplitsAcrossRanges: antithetic pair means are a
// function of the canonical merge order, so a range boundary through
// the middle of a pair changes nothing.
func TestMergerPairingSplitsAcrossRanges(t *testing.T) {
	opts := DefaultOptions()
	opts.Replications = 4
	opts.CheckEvery = 4
	opts.Variance.Mode = vr.ModeAntithetic

	merge := func(bounds [][2]int) *Merger {
		t.Helper()
		m, err := NewMerger(opts)
		if err != nil {
			t.Fatal(err)
		}
		round := []float64{1, 3, 10, 30}
		ranges := make([][]float64, len(bounds))
		lanes := make([]int, len(bounds))
		for i, b := range bounds {
			ranges[i] = round[b[0]:b[1]]
			lanes[i] = b[1] - b[0]
		}
		if err := m.MergeBlock(ranges, lanes, 1); err != nil {
			t.Fatal(err)
		}
		return m
	}
	whole := merge([][2]int{{0, 4}})
	split := merge([][2]int{{0, 1}, {1, 3}, {3, 4}}) // boundary inside both pairs
	if whole.N() != 2 || split.N() != 2 {
		t.Fatalf("pair counts %d/%d, want 2", whole.N(), split.N())
	}
	if whole.Estimate() != split.Estimate() {
		t.Fatalf("estimates differ across range layouts: %v vs %v", whole.Estimate(), split.Estimate())
	}
	if whole.Estimate() != (2.0+20.0)/2 {
		t.Fatalf("pooled estimate %v, want 11", whole.Estimate())
	}
	if whole.PerRound() != 2 {
		t.Fatalf("PerRound = %d, want 2", whole.PerRound())
	}
}

// TestSerialEstimatorsRejectVR: the transforms are parallel-only; the
// session-based estimators refuse them loudly instead of silently
// ignoring the request.
func TestSerialEstimatorsRejectVR(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	opts := DefaultOptions()
	opts.Variance.Mode = vr.ModeAntithetic

	if _, err := Estimate(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 1)), opts); err == nil {
		t.Error("Estimate accepted a VR mode")
	}
	if _, err := EstimateWithInterval(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 1)), opts, 2); err == nil {
		t.Error("EstimateWithInterval accepted a VR mode")
	}
}

// TestVROptionValidation: invalid combinations are rejected up front.
func TestVROptionValidation(t *testing.T) {
	opts := DefaultOptions()
	opts.Replications = 15
	opts.Variance.Mode = vr.ModeAntithetic
	if err := opts.Validate(); err == nil {
		t.Error("odd replication count accepted for antithetic pairing")
	}
	opts = DefaultOptions()
	opts.Mode = "zero-delay"
	opts.Variance.Mode = vr.ModeControlVariate
	if err := opts.Validate(); err == nil {
		t.Error("control variates accepted under zero-delay sampling")
	}
	opts = DefaultOptions()
	opts.Variance.Mode = "bogus"
	if err := opts.Validate(); err == nil {
		t.Error("unknown variance mode accepted")
	}
}

// TestAntitheticZeroDelayMode: pairing composes with the word-parallel
// zero-delay sampled phase (no covariate involved), stays deterministic
// and records the default (compiled) engine.
func TestAntitheticZeroDelayMode(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := vrTestOptions()
	opts.Mode = "zero-delay"
	opts.Variance.Mode = vr.ModeAntithetic

	a, err := EstimateParallel(tb, factory, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EstimateParallel(tb, factory, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameEstimate(t, b, a, "zero-delay antithetic repeat")
	if a.Engine != "compiled-zero-delay" {
		t.Errorf("engine %q, want compiled-zero-delay", a.Engine)
	}
}

// TestControlVariateRejectsZeroDelayTable: an all-zero delay table
// makes the covariate identical to the sample; resolution refuses the
// degenerate setup. A control-variate plan that did not come from
// resolution (a crafted checkpoint or worker request) is refused too:
// the run's word-parallel shards have no engine for the covariate.
func TestControlVariateRejectsZeroDelayTable(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := NewTestbench(c, delay.Zero{}, power.DefaultCapModel(), power.DefaultSupply())
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 16
	opts.Variance.Mode = vr.ModeControlVariate
	if _, err := EstimateParallelWithInterval(tb, factory, 1, opts, 2); err == nil {
		t.Error("control variates accepted over an all-zero delay table")
	}
	plan := vr.Plan{Mode: vr.ModeControlVariate, Beta: 0.5}
	if _, err := EstimateParallelResumeCtx(context.Background(), tb, factory, 1, opts, ResumePoint{Interval: 2, Plan: plan}); err == nil {
		t.Error("a resume point's control-variate plan accepted over an all-zero delay table")
	}
	err := StreamReplications(context.Background(), tb, factory, 1, opts, Stream{Plan: plan, Interval: 2, RepLo: 0, RepHi: 16},
		func(ReplicationBlock) error { return errStopStream })
	if err == nil || errors.Is(err, errStopStream) {
		t.Error("a streamed control-variate plan accepted over an all-zero delay table")
	}
}

// TestResumeRefusesPlanOfAnotherMode: a resume point whose plan's mode
// is not the variance mode its options ask for fails the run, as the
// same mismatch in a worker's run request does (Stream.Validate),
// instead of sampling under the options' mode and labelling the result
// with the plan's.
func TestResumeRefusesPlanOfAnotherMode(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	plain := DefaultOptions()
	plain.Replications = 16
	anti := plain
	anti.Variance.Mode = vr.ModeAntithetic
	cases := []struct {
		name string
		opts Options
		plan vr.Plan
	}{
		{"antithetic plan under plain options", plain, vr.Plan{Mode: vr.ModeAntithetic}},
		{"plain plan under antithetic options", anti, vr.Plan{}},
		{"control-variate plan under plain options", plain, vr.Plan{Mode: vr.ModeControlVariate, Beta: 0.5, ControlMean: 0.25}},
	}
	for _, tc := range cases {
		rp := ResumePoint{Interval: 2, Plan: tc.plan}
		res, err := EstimateParallelResumeCtx(context.Background(), tb, factory, 1, tc.opts, rp)
		if err == nil {
			t.Errorf("%s: resumed to power %v under variance %q", tc.name, res.Power, res.Variance)
		}
	}
}
