package core

import (
	"math"
	"testing"

	"repro/internal/bench89"
	"repro/internal/refsim"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// This file is the statistical conformance suite: an empirical check
// that the intervals the reproduction reports mean what the paper
// claims they mean. A long consecutive-cycle reference fixes the
// ground-truth mean; many independent estimation runs then measure
//
//   - CI coverage: the fraction of runs whose reported interval
//     contains the truth must not fall below the nominal confidence
//     (minus a binomial tolerance band — the criteria are conservative
//     by construction, so only the lower edge is informative), and
//   - unbiasedness: the mean of the point estimates must sit on the
//     truth within Monte-Carlo resolution,
//
// for the plain estimator and for every variance-reduction mode. The
// short variant (coverageRuns = 60) runs in the default `go test`; the
// nightly job builds with -tags slow for the full-size run.

// coverageCase is one estimator configuration under conformance test.
type coverageCase struct {
	name string
	mode vr.Mode
}

func TestCICoverageConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance suite skipped in -short mode")
	}
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	width := len(c.Inputs)

	// Ground truth: a long general-delay reference, far tighter than the
	// estimates under test. Its own standard error is folded into the
	// coverage check so the truth's residual uncertainty can only be
	// charged in the estimator's favour, never against it.
	ref := refsim.Run(tb.NewSession(vectors.NewIID(width, 0.5, 999_999)), 512, 300_000)
	truth := ref.Power
	truthSlack := 3 * ref.StdErr
	if ref.RelStdErr() > 0.005 {
		t.Fatalf("reference too loose for a conformance baseline: rel SE %.3f%%", 100*ref.RelStdErr())
	}

	const confidence = 0.95
	cases := []coverageCase{
		{"plain", vr.ModeNone},
		{"antithetic", vr.ModeAntithetic},
		{"control-variate", vr.ModeControlVariate},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			covered, converged := 0, 0
			var sumEst, sumSq float64
			for r := 0; r < coverageRuns; r++ {
				opts := DefaultOptions()
				opts.Spec.RelErr = 0.05
				opts.Spec.Confidence = confidence
				opts.Replications = 32
				opts.pool = 2
				opts.Variance.Mode = tc.mode
				opts.Variance.ControlCycles = 1024 // cheap covariate mean; error still negligible
				seed := int64(1_000_000 + r*7919)  // disjoint from the reference seed
				res, err := EstimateParallel(tb, vectors.IIDFactory(width, 0.5), seed, opts)
				if err != nil {
					t.Fatalf("run %d: %v", r, err)
				}
				if !res.Converged {
					continue
				}
				converged++
				sumEst += res.Power
				sumSq += res.Power * res.Power
				if math.Abs(res.Power-truth) <= res.HalfWidth+truthSlack {
					covered++
				}
			}
			if converged < coverageRuns*9/10 {
				t.Fatalf("only %d/%d runs converged", converged, coverageRuns)
			}

			// Coverage: empirical rate within the binomial tolerance band
			// below the nominal level. The criteria are conservative
			// (coverage >= nominal by design), so the upper edge is 1.
			coverage := float64(covered) / float64(converged)
			band := 3 * math.Sqrt(confidence*(1-confidence)/float64(converged))
			if coverage < confidence-band {
				t.Errorf("empirical %.0f%%-CI coverage %.3f below tolerance floor %.3f (%d/%d)",
					100*confidence, coverage, confidence-band, covered, converged)
			}

			// Unbiasedness: the estimator mean must agree with the truth
			// within Monte-Carlo resolution of the run ensemble.
			n := float64(converged)
			mean := sumEst / n
			sd := math.Sqrt(math.Max(0, sumSq/n-mean*mean))
			tol := 4*sd/math.Sqrt(n) + truthSlack
			if math.Abs(mean-truth) > tol {
				t.Errorf("estimator mean %v deviates from truth %v by %v (tolerance %v) — biased",
					mean, truth, math.Abs(mean-truth), tol)
			}
			t.Logf("%s: coverage %d/%d = %.3f (floor %.3f), mean %.6g vs truth %.6g, sd %.3g",
				tc.name, covered, converged, coverage, confidence-band, mean, truth, sd)
		})
	}
}
