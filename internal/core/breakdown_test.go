package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/bench89"
	"repro/internal/power"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// TestBreakdownSumsToEstimate: in plain estimation mode the per-node
// dynamic attribution is an exact refactoring of the scalar estimate —
// both are (Σ_i w_i · toggles_i) / samples, summed in different orders
// — so the report's dynamic total must match Result.Power to float
// summation noise, and the observation count must equal the sample
// size.
func TestBreakdownSumsToEstimate(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 16
	opts.Breakdown = true
	res, err := EstimateParallel(tb, factory, 42, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Breakdown
	if rep == nil {
		t.Fatal("Options.Breakdown set but Result.Breakdown is nil")
	}
	if rep.Observations != uint64(res.SampleSize) {
		t.Fatalf("observations %d != sample size %d", rep.Observations, res.SampleSize)
	}
	if rel := math.Abs(rep.Dynamic-res.Power) / res.Power; rel > 1e-9 {
		t.Fatalf("dynamic total %g W vs estimate %g W: relative gap %g", rep.Dynamic, res.Power, rel)
	}
	if rep.Leakage != tb.Model.TotalLeakage() {
		t.Fatalf("leakage %g != model total %g", rep.Leakage, tb.Model.TotalLeakage())
	}
	// The ranked rows cover gates and latches only; their dynamic sum
	// plus the primary inputs' (zero-weight) share is the total.
	var rowDyn float64
	for _, r := range rep.Rows {
		if r.Class == power.ClassInput || r.Class == power.ClassConst {
			t.Fatalf("ranked row %s has excluded class %s", r.Name, r.Class)
		}
		rowDyn += r.Dynamic
	}
	if rel := math.Abs(rowDyn-rep.Dynamic) / rep.Dynamic; rel > 1e-9 {
		t.Fatalf("row dynamic sum %g vs total %g (inputs carry zero weight)", rowDyn, rep.Dynamic)
	}
}

// TestBreakdownDeterministic: toggle counts are integer sums, so the
// report must be identical — toggles exactly, watts bit-for-bit —
// across shard layouts: 200 replications run as 1, 2 and 4 shards at
// the three pool widths. That the packed oracle counts the same per
// lane is internal/sim's three-way differential.
func TestBreakdownDeterministic(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 200
	opts.Breakdown = true
	var (
		ref    *power.BreakdownReport
		shards []int
	)
	for _, pool := range []int{1, 2, 7} {
		opts.pool = pool
		res, n, err := estimateShards(t, tb, factory, 11, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, n)
		if ref == nil {
			ref = res.Breakdown
			continue
		}
		got := res.Breakdown
		if got.Observations != ref.Observations || got.Dynamic != ref.Dynamic ||
			got.Leakage != ref.Leakage || len(got.Rows) != len(ref.Rows) {
			t.Fatalf("pool=%d: report header differs", pool)
		}
		for i := range got.Rows {
			if got.Rows[i] != ref.Rows[i] {
				t.Fatalf("pool=%d: row %d = %+v, want %+v", pool, i, got.Rows[i], ref.Rows[i])
			}
		}
	}
	requireLayouts(t, "pools 1, 2, 7", shards)
}

// TestBreakdownResumeSplice: EstimateParallelCtx, which warms the tail
// beside phase 1, equals PreparePlanCtx followed by
// EstimateParallelResumeCtx in every Result field — power, half-width,
// sample size, interval, cycle counters, coefficient and breakdown
// rows — in each power mode, variance mode, breakdown setting and
// interval source, at one and two pool goroutines, which run 200
// replications as one shard and as two. The phase-1 seed toggles a
// breakdown resume point carries are neither lost nor double-counted.
func TestBreakdownResumeSplice(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	fixed := 3
	for _, mode := range []power.PowerMode{power.ModeGeneralDelay, power.ModeZeroDelay} {
		for _, variance := range vr.Modes() {
			if mode.IsZeroDelay() && variance == vr.ModeControlVariate {
				continue // the covariate would equal the sample
			}
			for _, breakdown := range []bool{false, true} {
				for _, interval := range []*int{nil, &fixed} {
					var shards []int
					for _, pool := range []int{1, 2} {
						opts := DefaultOptions()
						opts.Replications = 200
						opts.Mode = mode
						opts.Variance.Mode = variance
						opts.Breakdown = breakdown
						opts.pool = pool
						label := fmt.Sprintf("%s/%s/breakdown=%v/fixed=%v/pool=%d", mode, variance, breakdown, interval != nil, pool)
						ctx := context.Background()
						direct, n, err := estimateShards(t, tb, factory, 42, opts, interval)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						shards = append(shards, n)
						rp, err := PreparePlanCtx(ctx, tb, factory, 42, opts, interval)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if breakdown && interval == nil && len(rp.SeedToggles) != c.NumNodes() {
							t.Fatalf("%s: resume point carries %d seed toggles, want %d", label, len(rp.SeedToggles), c.NumNodes())
						}
						resumed, err := EstimateParallelResumeCtx(ctx, tb, factory, 42, opts, rp)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if variance == vr.ModeControlVariate && direct.CVBeta == 0 {
							t.Fatalf("%s: zero coefficient, so the covariate-mean pre-run never ran", label)
						}
						if breakdown && direct.Breakdown == nil {
							t.Fatalf("%s: no breakdown report", label)
						}
						direct.Elapsed, resumed.Elapsed = 0, 0
						if !reflect.DeepEqual(direct, resumed) {
							t.Errorf("%s: direct and prepare+resume differ\n direct %+v\nresumed %+v", label, direct, resumed)
						}
					}
					requireLayouts(t, fmt.Sprintf("%s/%s/breakdown=%v/fixed=%v", mode, variance, breakdown, interval != nil), shards)
				}
			}
		}
	}
}

// TestSerialEstimatorsRejectBreakdown: the session-based estimators
// have no power model in scope to attribute against, so Breakdown must
// fail loudly there instead of being silently ignored.
func TestSerialEstimatorsRejectBreakdown(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Breakdown = true
	if _, err := Estimate(tb.NewSession(factory(1)), opts); err == nil {
		t.Error("Estimate accepted Options.Breakdown")
	}
	if _, err := EstimateWithInterval(tb.NewSession(factory(1)), opts, 2); err == nil {
		t.Error("EstimateWithInterval accepted Options.Breakdown")
	}
	if _, err := EstimateBatchMeans(tb.NewSession(factory(1)), opts, 32); err == nil {
		t.Error("EstimateBatchMeans accepted Options.Breakdown")
	}
}

// TestBreakdownOffByDefault: without the option the result carries no
// report and the sessions never pay for counting.
func TestBreakdownOffByDefault(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 8
	res, err := EstimateParallel(tb, factory, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Breakdown != nil {
		t.Fatal("Result.Breakdown non-nil without Options.Breakdown")
	}
}
