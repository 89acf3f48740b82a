package refsim

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Result is a long-run reference estimate.
type Result struct {
	Power     float64 // watts, mean over all sampled cycles
	Cycles    int     // consecutive cycles averaged
	Warmup    int     // cycles discarded before averaging
	StdErr    float64 // standard error from batch means (watts)
	BatchSize int
	Elapsed   time.Duration
	MinCycle  float64 // smallest single-cycle power observed
	MaxCycle  float64 // largest single-cycle power observed
}

// RelStdErr returns StdErr / Power (0 when Power is 0).
func (r Result) RelStdErr() float64 {
	if r.Power == 0 {
		return 0
	}
	return r.StdErr / math.Abs(r.Power)
}

// String summarizes the reference run.
func (r Result) String() string {
	return fmt.Sprintf("SIM=%.4g W over %d cycles (rel. std. err. %.3f%%)",
		r.Power, r.Cycles, 100*r.RelStdErr())
}

// collectChunk is how many consecutive samples Run collects per
// Session.Collect call: whole settle batches, in a buffer it reuses.
const collectChunk = 1024

// Run simulates warmup hidden cycles followed by `cycles` consecutive
// sampled (general-delay) cycles on the session and returns the mean
// power. The session is advanced in place; callers wanting a fresh state
// should pass a new session.
func Run(s *sim.Session, warmup, cycles int) Result {
	if cycles <= 0 {
		panic(fmt.Sprintf("refsim: cycles = %d must be positive", cycles))
	}
	start := time.Now()
	s.StepHiddenN(warmup)

	// Batch means give a serial-correlation-robust standard error for
	// the consecutive-cycle average.
	batch := cycles / 64
	if batch < 16 {
		batch = 16
	}
	var all, cur stats.Accumulator
	var batches stats.Accumulator
	inBatch := 0
	var buf []float64
	for done := 0; done < cycles; done += len(buf) {
		buf, _, _ = s.Collect(context.Background(), 0, min(cycles-done, collectChunk), buf[:0], nil, nil)
		for _, p := range buf {
			all.Add(p)
			cur.Add(p)
			inBatch++
			if inBatch == batch {
				batches.Add(cur.Mean())
				cur.Reset()
				inBatch = 0
			}
		}
	}
	res := Result{
		Power:     all.Mean(),
		Cycles:    cycles,
		Warmup:    warmup,
		BatchSize: batch,
		Elapsed:   time.Since(start),
		MinCycle:  all.Min(),
		MaxCycle:  all.Max(),
	}
	if batches.N() >= 2 {
		res.StdErr = batches.StdErr()
	} else {
		res.StdErr = all.StdErr()
	}
	return res
}
