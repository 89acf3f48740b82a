package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/bench89"
	"repro/internal/refsim"
	"repro/internal/stopping"
	"repro/internal/vectors"
)

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatal(err)
	}
	mut := func(f func(*Options)) Options {
		o := DefaultOptions()
		f(&o)
		return o
	}
	bad := []Options{
		mut(func(o *Options) { o.Alpha = 0 }),
		mut(func(o *Options) { o.Alpha = 1 }),
		mut(func(o *Options) { o.SeqLen = 8 }),
		mut(func(o *Options) { o.MaxInterval = -1 }),
		mut(func(o *Options) { o.Spec.RelErr = 0 }),
		mut(func(o *Options) { o.NewCriterion = nil }),
		mut(func(o *Options) { o.Test = nil }),
		mut(func(o *Options) { o.CheckEvery = 0 }),
		mut(func(o *Options) { o.MaxSamples = 10 }),
		mut(func(o *Options) { o.WarmupCycles = -1 }),
	}
	for i, o := range bad {
		if err := o.Validate(); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

// TestOptionsFieldsClassified pins the classification the service
// derives its result-cache key from: every Options field carries a JSON
// tag, a named field keys the cache, and only the fields listed here —
// each with the reason it cannot key by value — are left out. A new
// field fails until it is classified.
func TestOptionsFieldsClassified(t *testing.T) {
	unkeyed := map[string]string{
		"NewCriterion":   "a function; the key carries its criterion's Name()",
		"Test":           "a function; the key carries its Name()",
		"Workers":        "deprecated, no effect",
		"Backend":        "result-invariant: the backends are observation-equivalent",
		"SessionWorkers": "deprecated, no effect",
		"CacheBudget":    "deprecated, no effect",
		"Progress":       "a callback that never affects the estimate",
		"Metrics":        "telemetry that never affects the estimate",
		"pool":           "test seam of the shard layout, which never changes a result",
	}
	typ := reflect.TypeOf(Options{})
	for i := range typ.NumField() {
		f := typ.Field(i)
		tag, ok := f.Tag.Lookup("json")
		_, listed := unkeyed[f.Name]
		switch {
		case !ok:
			t.Errorf("Options.%s has no json tag: name it if it can change a Result, tag it \"-\" and list it here if not", f.Name)
		case tag == "-" && !listed:
			t.Errorf("Options.%s is tagged \"-\" but is not a listed result-invariant or function-valued field", f.Name)
		case tag != "-" && listed:
			t.Errorf("Options.%s is listed as unkeyed (%s) but has JSON name %q", f.Name, unkeyed[f.Name], tag)
		}
	}
}

func TestSelectIntervalSmallOnBenchmarks(t *testing.T) {
	// The paper observes independence intervals of a few clock cycles
	// (Tables 1-2: 0..10). Verify that on several circuits.
	for _, name := range []string{"s27", "s298", "s386", "s1494"} {
		c := bench89.MustGet(name)
		tb := DefaultTestbench(c)
		s := tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 11))
		sel, err := SelectInterval(s, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sel.Capped {
			t.Errorf("%s: interval selection capped", name)
		}
		if sel.Interval > 10 {
			t.Errorf("%s: interval %d, want <= 10", name, sel.Interval)
		}
		if len(sel.Trials) != sel.Interval+1 {
			t.Errorf("%s: %d trials for interval %d", name, len(sel.Trials), sel.Interval)
		}
		last := sel.Trials[len(sel.Trials)-1]
		if !last.Accepted {
			t.Errorf("%s: last trial not accepted", name)
		}
		for _, tr := range sel.Trials[:len(sel.Trials)-1] {
			if tr.Accepted {
				t.Errorf("%s: non-final trial %d marked accepted", name, tr.Interval)
			}
		}
		if len(sel.Sequence) != DefaultOptions().SeqLen {
			t.Errorf("%s: accepted sequence length %d", name, len(sel.Sequence))
		}
	}
}

func TestSelectIntervalCapping(t *testing.T) {
	c := bench89.MustGet("s1494")
	tb := DefaultTestbench(c)
	s := tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 3))
	opts := DefaultOptions()
	opts.MaxInterval = 0
	opts.Alpha = 0.9999 // nearly impossible to accept
	sel, err := SelectInterval(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Capped || sel.Interval != 0 {
		t.Fatalf("expected capped selection at 0, got %+v", sel)
	}
}

func TestEstimateMeetsSpecAgainstReference(t *testing.T) {
	// The headline property (Table 1): the estimate lands within the
	// accuracy spec of a long same-model reference.
	for _, name := range []string{"s27", "s298", "s386"} {
		c := bench89.MustGet(name)
		tb := DefaultTestbench(c)
		ref := refsim.Run(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 1)), 200, 150000)

		res, err := Estimate(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 2)), DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Converged {
			t.Fatalf("%s: did not converge", name)
		}
		dev := math.Abs(res.Power-ref.Power) / ref.Power
		// Allow the spec plus the reference's own noise.
		tol := 0.05 + 4*ref.RelStdErr()
		if dev > tol {
			t.Errorf("%s: deviation %.2f%% exceeds %.2f%% (est %g, ref %g)",
				name, 100*dev, 100*tol, res.Power, ref.Power)
		}
		if res.SampleSize <= 0 || res.TotalCycles() == 0 {
			t.Errorf("%s: missing diagnostics: %+v", name, res)
		}
	}
}

func TestEstimateSampleSizeAccounting(t *testing.T) {
	// With ReuseTestSamples the sample count is SeqLen + k*CheckEvery;
	// without it, a plain multiple of CheckEvery.
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	opts := DefaultOptions()
	res, err := Estimate(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 5)), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rem := (res.SampleSize - opts.SeqLen) % opts.CheckEvery; rem != 0 {
		t.Errorf("sample size %d is not SeqLen+k*CheckEvery", res.SampleSize)
	}
	if res.SampleSize < opts.SeqLen {
		t.Errorf("sample size %d below the reused sequence length", res.SampleSize)
	}

	opts.ReuseTestSamples = false
	res2, err := Estimate(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 5)), opts)
	if err != nil {
		t.Fatal(err)
	}
	if rem := res2.SampleSize % opts.CheckEvery; rem != 0 {
		t.Errorf("sample size %d not a multiple of CheckEvery", res2.SampleSize)
	}
}

func TestEstimateDeterministicPerSeed(t *testing.T) {
	c := bench89.MustGet("s344")
	tb := DefaultTestbench(c)
	a, err := Estimate(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 9)), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Estimate(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 9)), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if a.Power != b.Power || a.Interval != b.Interval || a.SampleSize != b.SampleSize {
		t.Fatalf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestEstimateWithIntervalFixed(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	res, err := EstimateWithInterval(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 7)), DefaultOptions(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interval != 5 {
		t.Fatalf("interval = %d, want 5", res.Interval)
	}
	if len(res.Trials) != 0 {
		t.Fatalf("fixed-interval run recorded %d selection trials", len(res.Trials))
	}
	// Hidden cycles must reflect the fixed spacing: ~5 hidden per sample.
	ratio := float64(res.HiddenCycles-uint64(DefaultOptions().WarmupCycles)) / float64(res.SampledCycles)
	if ratio < 4.5 || ratio > 5.5 {
		t.Fatalf("hidden/sampled ratio = %g, want ~5", ratio)
	}
	if _, err := EstimateWithInterval(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 7)), DefaultOptions(), -1); err == nil {
		t.Fatal("negative interval accepted")
	}
}

func TestEstimateMaxSamplesGuard(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	opts := DefaultOptions()
	opts.Spec = stopping.Spec{RelErr: 0.0005, Confidence: 0.999} // unreachable quickly
	opts.MaxSamples = opts.SeqLen + 10*opts.CheckEvery
	res, err := Estimate(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 13)), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("converged under an unreachable spec within MaxSamples")
	}
	if res.SampleSize > opts.MaxSamples {
		t.Fatalf("sample size %d exceeded MaxSamples %d", res.SampleSize, opts.MaxSamples)
	}
}

func TestZTraceDecays(t *testing.T) {
	// Fig. 3's qualitative shape: |z| large at interval 0, within the
	// acceptance band for large intervals.
	c := bench89.MustGet("s1494")
	tb := DefaultTestbench(c)
	s := tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 21))
	opts := DefaultOptions()
	zs, err := ZTrace(s, opts, 10, 4000)
	if err != nil {
		t.Fatal(err)
	}
	if len(zs) != 11 {
		t.Fatalf("trace length %d", len(zs))
	}
	if zs[0].AbsZ < 4 {
		t.Errorf("|z| at interval 0 = %.2f, expected strong correlation signal", zs[0].AbsZ)
	}
	// Average of the tail must sit well below the head.
	tail := 0.0
	for _, p := range zs[6:] {
		tail += p.AbsZ
	}
	tail /= float64(len(zs[6:]))
	if tail > zs[0].AbsZ/2 {
		t.Errorf("tail mean |z| %.2f did not decay from head %.2f", tail, zs[0].AbsZ)
	}
	for _, p := range zs {
		if p.AbsZ != math.Abs(p.Z) {
			t.Errorf("AbsZ inconsistent at k=%d", p.Interval)
		}
	}
}

func TestZTraceArgumentValidation(t *testing.T) {
	c := bench89.S27()
	tb := DefaultTestbench(c)
	s := tb.NewSession(vectors.NewIID(4, 0.5, 1))
	if _, err := ZTrace(s, DefaultOptions(), -1, 100); err == nil {
		t.Error("negative maxK accepted")
	}
	if _, err := ZTrace(s, DefaultOptions(), 3, 5); err == nil {
		t.Error("tiny seqLen accepted")
	}
}

func TestCriterionSwapping(t *testing.T) {
	// All three stopping criteria must drive the estimator to
	// convergence; the distribution-free ones may need more samples.
	c := bench89.MustGet("s344")
	tb := DefaultTestbench(c)
	for _, f := range []stopping.Factory{
		stopping.NormalFactory, stopping.KSFactory, stopping.OrderStatisticsFactory,
	} {
		opts := DefaultOptions()
		opts.NewCriterion = f
		res, err := Estimate(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 31)), opts)
		if err != nil {
			t.Fatalf("%s: %v", criterionName(f, opts.Spec), err)
		}
		if !res.Converged {
			t.Errorf("%s: did not converge", res.Criterion)
		}
		if res.Power <= 0 {
			t.Errorf("%s: nonpositive power %g", res.Criterion, res.Power)
		}
	}
}

func TestTestbenchWeightsExcludeInputs(t *testing.T) {
	c := bench89.S27()
	tb := DefaultTestbench(c)
	w := tb.Weights()
	for _, id := range c.Inputs {
		if w[id] != 0 {
			t.Fatalf("input %s has nonzero power weight", c.Nodes[id].Name)
		}
	}
	nonzero := 0
	for _, v := range w {
		if v > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("all weights zero")
	}
}

func TestResultHelpers(t *testing.T) {
	r := Result{Power: 2, HalfWidth: 0.1, HiddenCycles: 10, SampledCycles: 5}
	if r.RelHalfWidth() != 0.05 {
		t.Errorf("RelHalfWidth = %g", r.RelHalfWidth())
	}
	if r.TotalCycles() != 15 {
		t.Errorf("TotalCycles = %d", r.TotalCycles())
	}
	if r.String() == "" {
		t.Error("empty String()")
	}
	zero := Result{}
	if zero.RelHalfWidth() != 0 {
		t.Error("zero-power RelHalfWidth should be 0")
	}
}
