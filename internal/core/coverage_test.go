package core

import (
	"math"
	"testing"

	"repro/internal/bench89"
	"repro/internal/markov"
	"repro/internal/power"
	"repro/internal/refsim"
	"repro/internal/sim"
	"repro/internal/stopping"
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
// for the plain parallel estimator and every variance-reduction mode,
// for the serial estimator, and for both in zero-delay mode, whose truth
// is a zero-delay reference; for the serial estimator at a fixed
// interval (dipe -interval), the parallel estimator under the normal and
// KS criteria (dipe -criterion), the batch-means baseline, and the
// paper's exact state-sampling approach (markov.EstimateByStateSampling).
// The short variant (coverageRuns = 60) runs in the default `go test`;
// the nightly job builds with -tags slow for the full-size run.

// coverageCase is one estimator configuration under conformance test:
// its variance-reduction mode, its power mode, its stopping criterion
// (nil keeps the default order statistics), and the serial estimator it
// runs on one session of its power mode seeded from the run's seed,
// which it receives too (nil runs EstimateParallel).
type coverageCase struct {
	name      string
	mode      vr.Mode
	power     power.PowerMode
	criterion stopping.Factory
	serial    func(s *sim.Session, opts Options, seed int64) (Result, error)
}

// serialEstimate is Estimate as a coverageCase serial estimator: the
// session is its only source of randomness.
func serialEstimate(s *sim.Session, opts Options, _ int64) (Result, error) { return Estimate(s, opts) }

func TestCICoverageConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("conformance suite skipped in -short mode")
	}
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	width := len(c.Inputs)

	// Ground truth per power mode: a long reference in that mode, far
	// tighter than the estimates under test. Its own standard error is
	// folded into the coverage check so the truth's residual
	// uncertainty can only be charged in the estimator's favour, never
	// against it.
	refs := make(map[power.PowerMode]refsim.Result)
	for _, mode := range []power.PowerMode{power.ModeGeneralDelay, power.ModeZeroDelay} {
		ref := refsim.Run(tb.NewSessionMode(vectors.NewIID(width, 0.5, 999_999), mode), 512, 300_000)
		if ref.RelStdErr() > 0.005 {
			t.Fatalf("%s reference too loose for a conformance baseline: rel SE %.3f%%", mode, 100*ref.RelStdErr())
		}
		refs[mode] = ref
	}

	// The state-sampling estimator draws each sample's state from the
	// stationary distribution of s27's state transition graph under
	// the runs' i.i.d. p = 0.5 inputs, solved once for every run.
	inputP := make([]float64, width)
	for i := range inputP {
		inputP[i] = 0.5
	}
	stg, err := markov.Extract(c, inputP)
	if err != nil {
		t.Fatal(err)
	}
	stationary, err := stg.Stationary(1e-12, 100_000)
	if err != nil {
		t.Fatal(err)
	}

	const confidence = 0.95
	cases := []coverageCase{
		{name: "plain", mode: vr.ModeNone, power: power.ModeGeneralDelay},
		{name: "antithetic", mode: vr.ModeAntithetic, power: power.ModeGeneralDelay},
		{name: "control-variate", mode: vr.ModeControlVariate, power: power.ModeGeneralDelay},
		{name: "serial", mode: vr.ModeNone, power: power.ModeGeneralDelay, serial: serialEstimate},
		{name: "serial-zero-delay", mode: vr.ModeNone, power: power.ModeZeroDelay, serial: serialEstimate},
		{name: "zero-delay", mode: vr.ModeNone, power: power.ModeZeroDelay},
		// Selection picks interval 1 on s27, so a fixed 2 is a path of
		// its own.
		{name: "serial-fixed-interval", mode: vr.ModeNone, power: power.ModeGeneralDelay,
			serial: func(s *sim.Session, opts Options, _ int64) (Result, error) { return EstimateWithInterval(s, opts, 2) }},
		{name: "normal", mode: vr.ModeNone, power: power.ModeGeneralDelay, criterion: stopping.NormalFactory},
		{name: "ks", mode: vr.ModeNone, power: power.ModeGeneralDelay, criterion: stopping.KSFactory},
		{name: "batch-means", mode: vr.ModeNone, power: power.ModeGeneralDelay,
			serial: func(s *sim.Session, opts Options, _ int64) (Result, error) {
				return EstimateBatchMeans(s, opts, DefaultBatchCycles)
			}},
		// The session draws each sample's V2; the run's seed also seeds
		// the estimator's draws of S1 and V1.
		{name: "state-sampling", mode: vr.ModeNone, power: power.ModeGeneralDelay,
			serial: func(s *sim.Session, opts Options, seed int64) (Result, error) {
				r, err := markov.EstimateByStateSampling(s, stg, stationary, inputP,
					opts.Spec, opts.NewCriterion, seed, opts.CheckEvery, opts.MaxSamples)
				return Result{Power: r.Power, SampleSize: r.SampleSize, HalfWidth: r.HalfWidth, Converged: r.Converged}, err
			}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			truth := refs[tc.power].Power
			truthSlack := 3 * refs[tc.power].StdErr
			covered, converged := 0, 0
			var sumEst, sumSq float64
			for r := 0; r < coverageRuns; r++ {
				opts := DefaultOptions()
				opts.Spec.RelErr = 0.05
				opts.Spec.Confidence = confidence
				opts.Replications = 32
				opts.pool = 2
				opts.Mode = tc.power
				opts.Variance.Mode = tc.mode
				opts.Variance.ControlCycles = 1024 // cheap covariate mean; error still negligible
				if tc.criterion != nil {
					opts.NewCriterion = tc.criterion
				}
				seed := int64(1_000_000 + r*7919) // disjoint from the reference seed
				var res Result
				var err error
				if tc.serial != nil {
					res, err = tc.serial(tb.NewSessionMode(vectors.NewIID(width, 0.5, seed), tc.power), opts, seed)
				} else {
					res, err = EstimateParallel(tb, vectors.IIDFactory(width, 0.5), seed, opts)
				}
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
