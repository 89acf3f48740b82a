package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// The goldens in this file are the packed oracle's answers: each was
// recorded from a full estimate on the interpreted sim.PackedSession
// (the estimator's lane engine could still be switched to it then),
// where the compiled engine matched it bit for bit. Per-lane equality
// of the two engines is proven in internal/sim; these tests pin the
// whole estimator flow on the compiled engine to the oracle's numbers
// at shard layouts the oracle never had.

// requireGolden fails unless got equals the recorded golden want in
// every estimation-visible field: power, half-width, sample size,
// interval, both cycle counters, the control-variate coefficient, the
// variance and criterion labels, and convergence.
func requireGolden(t *testing.T, label string, want, got Result) {
	t.Helper()
	if got.Power != want.Power {
		t.Errorf("%s: power %.17g, golden %.17g", label, got.Power, want.Power)
	}
	if got.HalfWidth != want.HalfWidth {
		t.Errorf("%s: half-width %.17g, golden %.17g", label, got.HalfWidth, want.HalfWidth)
	}
	if got.SampleSize != want.SampleSize {
		t.Errorf("%s: sample size %d, golden %d", label, got.SampleSize, want.SampleSize)
	}
	if got.Interval != want.Interval {
		t.Errorf("%s: interval %d, golden %d", label, got.Interval, want.Interval)
	}
	if got.HiddenCycles != want.HiddenCycles || got.SampledCycles != want.SampledCycles {
		t.Errorf("%s: cycles (%d, %d), golden (%d, %d)", label,
			got.HiddenCycles, got.SampledCycles, want.HiddenCycles, want.SampledCycles)
	}
	if got.CVBeta != want.CVBeta {
		t.Errorf("%s: cv beta %.17g, golden %.17g", label, got.CVBeta, want.CVBeta)
	}
	if got.Variance != want.Variance || got.Criterion != want.Criterion {
		t.Errorf("%s: labeling (%q, %q), golden (%q, %q)", label,
			got.Variance, got.Criterion, want.Variance, want.Criterion)
	}
	if got.Converged != want.Converged {
		t.Errorf("%s: converged %v, golden %v", label, got.Converged, want.Converged)
	}
}

// TestCompiledBackendGoldenParallel is the golden end-to-end test: the
// full EstimateParallel flow on the compiled engine reproduces the
// packed oracle's mean, half-width, sample size and cycle split
// bit-for-bit, across power modes and every variance-reduction
// transform, at two pool widths. The 96 zero-delay replications span
// two word rows, which pool 1 runs as one 96-lane shard, a layout the
// oracle's 64-lane words never had, and pool 2 as two. Every other row
// is one word row, so both widths run it as one shard;
// TestEstimateParallelDeterministic and
// TestVRDeterminismAndWorkerInvariance vary the layout of those modes
// at several word rows.
func TestCompiledBackendGoldenParallel(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	cases := []struct {
		label    string
		mode     power.PowerMode
		variance vr.Mode
		reps     int
		golden   Result
	}{
		{"zero-delay/plain", power.ModeZeroDelay, vr.ModeNone, 96, Result{
			Power: 0.00029914257812500004, HalfWidth: 1.3749999999999982e-05, SampleSize: 1280, Interval: 2,
			HiddenCycles: 52544, SampledCycles: 1920, Criterion: "order-statistics", Converged: true}},
		{"zero-delay/antithetic", power.ModeZeroDelay, vr.ModeAntithetic, 64, Result{
			Power: 0.00029635009765624975, HalfWidth: 1.2656250000000026e-05, SampleSize: 1024, Interval: 2,
			HiddenCycles: 37056, SampledCycles: 2368, Variance: "antithetic", Criterion: "order-statistics", Converged: true}},
		{"general-delay/plain", power.ModeGeneralDelay, vr.ModeNone, 48, Result{
			Power: 0.00036272874999999975, HalfWidth: 1.7500000000000019e-05, SampleSize: 2000, Interval: 2,
			HiddenCycles: 29408, SampledCycles: 2640, Criterion: "order-statistics", Converged: true}},
		{"general-delay/control-variate", power.ModeGeneralDelay, vr.ModeControlVariate, 48, Result{
			Power: 0.00036945326934601782, HalfWidth: 1.386113079081532e-05, SampleSize: 320, Interval: 2,
			HiddenCycles: 320960, SampledCycles: 960, CVBeta: 1.5175858621575102,
			Variance: "control-variate", Criterion: "order-statistics", Converged: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.label, func(t *testing.T) {
			t.Parallel()
			wantEngine := sim.EngineEventDriven
			if tc.mode.IsZeroDelay() {
				wantEngine = sim.EngineCompiledZeroDelay
			}
			for _, pool := range []int{1, 2} { // the pool must not matter
				opts := DefaultOptions()
				opts.Mode = tc.mode
				opts.Variance.Mode = tc.variance
				opts.Replications = tc.reps
				opts.pool = pool
				res, err := EstimateParallel(tb, factory, 33, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("%s pool %d", tc.label, pool)
				requireGolden(t, label, tc.golden, res)
				if res.Engine != wantEngine {
					t.Errorf("%s: engine %q, want %q", label, res.Engine, wantEngine)
				}
			}
		})
	}
}

// TestCompiledBackendAllZeroUpgradeEngine pins the all-zero-delay
// upgrade path: a general-delay run over a zero delay table is silently
// upgraded to word-parallel sampling, reproduces the packed oracle's
// golden, and Result.Engine names the engine that actually observed it,
// the compiled zero-delay engine, with delay model "zero".
func TestCompiledBackendAllZeroUpgradeEngine(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := NewTestbench(c, delay.Zero{}, power.DefaultCapModel(), power.DefaultSupply())
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 16
	res, err := EstimateParallel(tb, factory, 5, opts)
	if err != nil {
		t.Fatal(err)
	}
	requireGolden(t, "all-zero upgrade", Result{
		Power: 4.1892510775862074e-05, HalfWidth: 1.8750000000000083e-06, SampleSize: 1856, Interval: 2,
		HiddenCycles: 12736, SampledCycles: 2496, Criterion: "order-statistics", Converged: true}, res)
	if res.Engine != sim.EngineCompiledZeroDelay {
		t.Errorf("engine %q, want %q", res.Engine, sim.EngineCompiledZeroDelay)
	}
	if want := (delay.Zero{}).Name(); res.DelayModel != want {
		t.Errorf("delay model %q, want %q", res.DelayModel, want)
	}
}

// blocksDigest is the SHA-256 of a sequence of sample blocks: each
// block's length, then its samples' IEEE-754 bits, little-endian.
func blocksDigest(blocks [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, b := range blocks {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(b)))
		h.Write(buf[:])
		for _, s := range b {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(s))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCompiledBackendGoldenStreamed checks the streamed (cluster
// worker) path: the first three StreamReplications blocks on the
// compiled engine are bit-identical to the packed oracle's, recorded as
// a digest, at one and two pool goroutines.
func TestCompiledBackendGoldenStreamed(t *testing.T) {
	const golden = "a13472764e2b4aa30aa8b859393acc4e3d80614cc645cb2fb8685162be06c164"
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	for _, pool := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Mode = power.ModeZeroDelay
		opts.pool = pool
		opts.Replications = 96
		opts.CheckEvery = 4 * 96 // four rounds a block
		var blocks [][]float64
		err := StreamReplications(t.Context(), tb, factory, 21, opts, Stream{Interval: 2, RepLo: 0, RepHi: 96},
			func(b ReplicationBlock) error {
				blocks = append(blocks, append([]float64(nil), b.Samples...))
				if len(blocks) == 3 {
					return errStopStream
				}
				return nil
			})
		if !errors.Is(err, errStopStream) {
			t.Fatal(err)
		}
		for i, b := range blocks {
			if len(b) != 4*96 {
				t.Fatalf("pool %d block %d: %d samples, want %d", pool, i, len(b), 4*96)
			}
		}
		if got := blocksDigest(blocks); got != golden {
			t.Errorf("pool %d: block digest %s, golden %s", pool, got, golden)
		}
	}
}

// TestWideSessionGoldenS38417 is the large-circuit golden test of wide
// compiled sessions at estimator level: the full EstimateParallel flow
// on s38417, zero-delay with 512 replications, must reproduce the
// packed oracle's golden whether the compiled engine runs them as one
// 512-lane session (pool 1: 8-word rows, the run-batched dispatcher),
// as two 256-lane sessions (pool 2), or as eight one-word sessions
// (pool 8, the oracle's own layout). A fixed interval, a short warm-up
// and a loose accuracy spec keep the run test-sized; the contract is
// exact equality, not statistics.
func TestWideSessionGoldenS38417(t *testing.T) {
	c := bench89.MustGet("s38417")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	golden := Result{
		Power: 0.057361933593751496, HalfWidth: 0.0029996874999992963, SampleSize: 512, Interval: 2,
		HiddenCycles: 33792, SampledCycles: 512, Criterion: "order-statistics", Converged: true}
	for _, pool := range []int{1, 2, 8} {
		opts := DefaultOptions()
		opts.Mode = power.ModeZeroDelay
		opts.Replications = 512
		opts.pool = pool
		opts.WarmupCycles = 64
		opts.Spec.RelErr = 0.5
		res, err := EstimateParallelWithInterval(tb, factory, 7, opts, 2)
		if err != nil {
			t.Fatalf("pool %d: %v", pool, err)
		}
		requireGolden(t, fmt.Sprintf("pool %d", pool), golden, res)
		if res.Engine != sim.EngineCompiledZeroDelay {
			t.Errorf("pool %d: engine %q, want %q", pool, res.Engine, sim.EngineCompiledZeroDelay)
		}
	}
}
