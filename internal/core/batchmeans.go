package core

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// DefaultBatchCycles is the default batch size for EstimateBatchMeans:
// long enough that batch means of a few-cycle-correlated process are
// nearly independent.
const DefaultBatchCycles = 64

// EstimateBatchMeans is the consecutive-cycle baseline in the style of
// the paper's ref [1] (Najm, Goel, Hajj, DAC'95): every clock cycle is
// simulated with the general-delay simulator and power is averaged in
// batches of `batch` cycles; the batch means (approximately independent
// for batch >> correlation time) feed the stopping criterion.
//
// Against DIPE the trade-off is explicit: no randomness test and no
// zero-delay phase, but every simulated cycle pays general-delay cost,
// and the batch size is a blind a-priori guess where DIPE's interval is
// measured. The warm-up ablation quantifies the difference.
func EstimateBatchMeans(s *sim.Session, opts Options, batch int) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	if err := rejectVariance(opts); err != nil {
		return Result{}, err
	}
	if batch < 1 {
		return Result{}, fmt.Errorf("core: batch size %d must be >= 1", batch)
	}
	start := time.Now()
	s.ResetCounters()
	s.StepHiddenN(opts.WarmupCycles)

	crit := opts.NewCriterion(opts.Spec)
	name := fmt.Sprintf("batch-means-%d/%s", batch, crit.Name())
	var buf []float64
	for !crit.Done() {
		if (crit.N()+1)*batch > opts.MaxSamples {
			return Result{
				Power:         crit.Estimate(),
				SampleSize:    crit.N() * batch,
				HalfWidth:     crit.HalfWidth(),
				HiddenCycles:  s.HiddenCycles,
				SampledCycles: s.SampledCycles,
				Elapsed:       time.Since(start),
				Criterion:     name,
				Converged:     false,
			}, nil
		}
		buf, _ = s.Collect(0, batch, buf[:0], nil, nil)
		sum := 0.0
		for _, p := range buf {
			sum += p
		}
		crit.Add(sum / float64(batch))
	}
	return Result{
		Power: crit.Estimate(),
		// SampleSize counts simulated power cycles, keeping the cost
		// comparable with DIPE's sample counts.
		SampleSize:    crit.N() * batch,
		HalfWidth:     crit.HalfWidth(),
		HiddenCycles:  s.HiddenCycles,
		SampledCycles: s.SampledCycles,
		Elapsed:       time.Since(start),
		Criterion:     name,
		Converged:     true,
	}, nil
}
