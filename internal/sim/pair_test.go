package sim

import (
	"testing"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/vectors"
)

// pairBench builds a frozen benchmark circuit with its default models
// for the pair-sampling equivalence tests.
func pairBench(t *testing.T, name string) (*PackedSession, *PackedSession, []float64, int) {
	t.Helper()
	c := bench89.MustGet(name)
	weights := power.NewModel(c, power.DefaultCapModel(), power.DefaultSupply()).Weights()
	const lanes = MaxLanes
	mk := func() *PackedSession {
		srcs := make([]vectors.Source, lanes)
		for k := range srcs {
			srcs[k] = vectors.NewIID(len(c.Inputs), 0.5, int64(1000+k))
		}
		return NewPackedSession(c, srcs)
	}
	return mk(), mk(), weights, lanes
}

// TestStepSampledBothMatchesSeparateSteps: StepSampledBoth's powers are
// bit-identical to StepSampledWith on a twin session, and its toggles
// are bit-identical to StepSampled on the same twin — one cycle yields
// exactly the general-delay sample and its zero-delay covariate.
func TestStepSampledBothMatchesSeparateSteps(t *testing.T) {
	c := bench89.MustGet("s298")
	dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	a, b, weights, lanes := pairBench(t, "s298")
	engA := NewEventDriven(c, dt)
	engB := NewEventDriven(c, dt)

	a.StepHiddenN(32)
	b.StepHiddenN(32)

	powersA := make([]float64, lanes)
	togglesA := make([]float64, lanes)
	powersB := make([]float64, lanes)

	for cycle := 0; cycle < 50; cycle++ {
		// The twin interleaves: StepSampledWith to check powers on even
		// cycles, StepSampled to check toggles on odd ones. Both advance
		// the state identically to StepSampledBoth, so the sessions stay
		// in lock-step.
		a.StepSampledBoth(engA, weights, powersA, togglesA)
		if cycle%2 == 0 {
			b.StepSampledWith(engB, weights, powersB)
			for k := 0; k < lanes; k++ {
				if powersA[k] != powersB[k] {
					t.Fatalf("cycle %d lane %d: both-power %v != with-power %v", cycle, k, powersA[k], powersB[k])
				}
			}
		} else {
			b.StepSampled(weights, powersB)
			for k := 0; k < lanes; k++ {
				if togglesA[k] != powersB[k] {
					t.Fatalf("cycle %d lane %d: both-toggle %v != packed zero-delay power %v", cycle, k, togglesA[k], powersB[k])
				}
			}
		}
	}
	if a.SampledCycles != b.SampledCycles {
		t.Fatalf("cycle counters diverged: %d vs %d", a.SampledCycles, b.SampledCycles)
	}
}

// TestSessionStepSampledPair: the scalar pair step leaves the sample
// and the trajectory bit-identical to plain sampling, and its covariate
// equals the ZeroDelayToggle engine's power for the same cycle on a
// lock-stepped twin.
func TestSessionStepSampledPair(t *testing.T) {
	c := bench89.MustGet("s298")
	dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	weights := power.NewModel(c, power.DefaultCapModel(), power.DefaultSupply()).Weights()

	mk := func(engine PowerEngine) *ScalarSession {
		return NewScalarSession(c, engine, vectors.NewIID(len(c.Inputs), 0.5, 77), weights)
	}
	paired := mk(NewEventDriven(c, dt))
	plain := mk(NewEventDriven(c, dt))
	toggle := mk(NewZeroDelayToggle(c))

	paired.StepHiddenN(64)
	plain.StepHiddenN(64)
	toggle.StepHiddenN(64)

	for cycle := 0; cycle < 200; cycle++ {
		x, cov := paired.StepSampledPair(nil)
		if want := plain.StepSampled(nil); x != want {
			t.Fatalf("cycle %d: pair sample %v != plain sample %v", cycle, x, want)
		}
		if want := toggle.StepSampled(nil); cov != want {
			t.Fatalf("cycle %d: pair covariate %v != zero-delay toggle power %v", cycle, cov, want)
		}
	}
	if paired.SampledCycles != plain.SampledCycles {
		t.Fatalf("cycle counters diverged: %d vs %d", paired.SampledCycles, plain.SampledCycles)
	}
}
