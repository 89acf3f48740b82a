package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// requireGolden fails unless the two results are bit-identical in every
// estimation-visible field — the backend contract: switching backends
// may change throughput, never a single bit of the answer.
func requireGolden(t *testing.T, label string, packed, compiled Result) {
	t.Helper()
	if compiled.Power != packed.Power {
		t.Errorf("%s: power %v != %v", label, compiled.Power, packed.Power)
	}
	if compiled.HalfWidth != packed.HalfWidth {
		t.Errorf("%s: half-width %v != %v", label, compiled.HalfWidth, packed.HalfWidth)
	}
	if compiled.SampleSize != packed.SampleSize {
		t.Errorf("%s: sample size %d != %d", label, compiled.SampleSize, packed.SampleSize)
	}
	if compiled.Interval != packed.Interval {
		t.Errorf("%s: interval %d != %d", label, compiled.Interval, packed.Interval)
	}
	if compiled.HiddenCycles != packed.HiddenCycles || compiled.SampledCycles != packed.SampledCycles {
		t.Errorf("%s: cycles (%d, %d) != (%d, %d)", label,
			compiled.HiddenCycles, compiled.SampledCycles, packed.HiddenCycles, packed.SampledCycles)
	}
	if compiled.CVBeta != packed.CVBeta {
		t.Errorf("%s: cv beta %v != %v", label, compiled.CVBeta, packed.CVBeta)
	}
	if compiled.Variance != packed.Variance || compiled.Criterion != packed.Criterion {
		t.Errorf("%s: labeling (%q, %q) != (%q, %q)", label,
			compiled.Variance, compiled.Criterion, packed.Variance, packed.Criterion)
	}
	if compiled.Converged != packed.Converged {
		t.Errorf("%s: converged %v != %v", label, compiled.Converged, packed.Converged)
	}
	if !packed.Converged {
		t.Errorf("%s: reference run did not converge", label)
	}
}

// TestCompiledBackendGoldenParallel is the golden end-to-end test: the
// full EstimateParallel flow on the compiled backend reproduces the
// interpreted backend's mean, half-width, sample size and cycle split
// bit-for-bit, across power modes and every variance-reduction
// transform. Replication counts beyond one machine word force different
// shard layouts per backend (one 96-lane compiled shard vs two packed
// words), so the lane→seed contract itself is under test, not just the
// per-step semantics.
func TestCompiledBackendGoldenParallel(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	cases := []struct {
		label    string
		mode     power.PowerMode
		variance vr.Mode
		reps     int
	}{
		{"zero-delay/plain", power.ModeZeroDelay, vr.ModeNone, 96},
		{"zero-delay/antithetic", power.ModeZeroDelay, vr.ModeAntithetic, 64},
		{"general-delay/plain", power.ModeGeneralDelay, vr.ModeNone, 48},
		{"general-delay/control-variate", power.ModeGeneralDelay, vr.ModeControlVariate, 48},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.label, func(t *testing.T) {
			t.Parallel()
			opts := DefaultOptions()
			opts.Mode = tc.mode
			opts.Variance.Mode = tc.variance
			opts.Replications = tc.reps
			opts.pool = 2
			opts.Backend = sim.BackendPacked
			packed, err := EstimateParallel(tb, factory, 33, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Backend = sim.BackendCompiled
			opts.pool = 3 // a different pool must not matter either
			compiled, err := EstimateParallel(tb, factory, 33, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireGolden(t, tc.label, packed, compiled)
			if packed.Backend != string(sim.BackendPacked) || compiled.Backend != string(sim.BackendCompiled) {
				t.Errorf("backends recorded as (%q, %q)", packed.Backend, compiled.Backend)
			}
			wantEngine := sim.EngineEventDriven
			if tc.mode.IsZeroDelay() {
				wantEngine = sim.EngineCompiledZeroDelay
			}
			if compiled.Engine != wantEngine {
				t.Errorf("compiled engine %q, want %q", compiled.Engine, wantEngine)
			}
		})
	}
}

// TestCompiledBackendAllZeroUpgradeEngine pins the all-zero-delay
// upgrade path: a general-delay run over a zero delay table is silently
// upgraded to word-parallel sampling, and Result.Engine must name the
// backend that actually observed it — the compiled zero-delay engine
// under the compiled backend, not the packed interpreter.
func TestCompiledBackendAllZeroUpgradeEngine(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := NewTestbench(c, delay.Zero{}, power.DefaultCapModel(), power.DefaultSupply())
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 16
	opts.Backend = sim.BackendPacked
	packed, err := EstimateParallel(tb, factory, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Backend = sim.BackendCompiled
	compiled, err := EstimateParallel(tb, factory, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, "all-zero upgrade", packed, compiled)
	if packed.Engine != sim.EnginePackedZeroDelay {
		t.Errorf("packed engine %q, want %q", packed.Engine, sim.EnginePackedZeroDelay)
	}
	if compiled.Engine != sim.EngineCompiledZeroDelay {
		t.Errorf("compiled engine %q, want %q", compiled.Engine, sim.EngineCompiledZeroDelay)
	}
	if packed.DelayModel != compiled.DelayModel {
		t.Errorf("delay models %q != %q", compiled.DelayModel, packed.DelayModel)
	}
}

// TestCompiledBackendGoldenStreamed checks the streamed (cluster
// worker) path: StreamReplications blocks under the compiled backend
// are bit-identical to the interpreted ones, shard layout differences
// and all.
func TestCompiledBackendGoldenStreamed(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	collect := func(backend sim.Backend, pool int) [][]float64 {
		opts := DefaultOptions()
		opts.Mode = power.ModeZeroDelay
		opts.Backend = backend
		opts.pool = pool
		opts.Replications = 96
		opts.CheckEvery = 4 * 96 // four rounds a block
		var blocks [][]float64
		err := StreamReplications(t.Context(), tb, factory, 21, opts, Stream{Interval: 2, RepLo: 0, RepHi: 96},
			func(b ReplicationBlock) error {
				s := make([]float64, len(b.Samples))
				copy(s, b.Samples)
				blocks = append(blocks, s)
				if len(blocks) == 3 {
					return errStopStream
				}
				return nil
			})
		if !errors.Is(err, errStopStream) {
			t.Fatal(err)
		}
		return blocks
	}
	ref := collect(sim.BackendPacked, 2)
	got := collect(sim.BackendCompiled, 1)
	if len(ref) != len(got) {
		t.Fatalf("block counts %d != %d", len(got), len(ref))
	}
	for i := range ref {
		if len(ref[i]) != len(got[i]) {
			t.Fatalf("block %d: lengths %d != %d", i, len(got[i]), len(ref[i]))
		}
		for j := range ref[i] {
			if ref[i][j] != got[i][j] {
				t.Fatalf("block %d sample %d: compiled %v, packed %v", i, j, got[i][j], ref[i][j])
			}
		}
	}
}

// TestWideSessionGoldenS38417 is the large-circuit golden test of wide
// compiled sessions at estimator level: the full EstimateParallel flow
// on s38417, zero-delay with 512 replications, must produce results
// bit-identical to the packed oracle (eight 64-lane interpreted
// sessions) whether the compiled engine runs them as one 512-lane
// session (pool 1: 8-word rows, the run-batched dispatcher) or as
// two 256-lane sessions (pool 2). A fixed interval, a short warm-up
// and a loose accuracy spec keep the run test-sized; the contract is
// exact equality, not statistics.
func TestWideSessionGoldenS38417(t *testing.T) {
	c := bench89.MustGet("s38417")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	run := func(backend sim.Backend, pool int) Result {
		opts := DefaultOptions()
		opts.Mode = power.ModeZeroDelay
		opts.Backend = backend
		opts.Replications = 512
		opts.pool = pool
		opts.WarmupCycles = 64
		opts.Spec.RelErr = 0.5
		res, err := EstimateParallelWithInterval(tb, factory, 7, opts, 2)
		if err != nil {
			t.Fatalf("%s backend, pool %d: %v", backend, pool, err)
		}
		return res
	}
	packed := run(sim.BackendPacked, 2)
	for _, pool := range []int{1, 2} {
		compiled := run(sim.BackendCompiled, pool)
		requireGolden(t, fmt.Sprintf("pool %d", pool), packed, compiled)
		if compiled.Engine != sim.EngineCompiledZeroDelay || packed.Engine != sim.EnginePackedZeroDelay {
			t.Errorf("engines (%q, %q)", compiled.Engine, packed.Engine)
		}
	}
}
