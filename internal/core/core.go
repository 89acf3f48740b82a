package core

import (
	"fmt"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/randtest"
	"repro/internal/sim"
	"repro/internal/stopping"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// Options collects the tunables of the estimation procedure. The zero
// value is not usable; start from DefaultOptions.
//
// Options is the one definition of an estimator option; the service's
// result-cache key and wire forms derive from it. Each field's JSON tag
// classifies it: a named field can change a Result, so it keys the
// cache, while `json:"-"` marks a knob that cannot (throughput,
// callbacks) or a function-valued field, which keys by its Name().
// TestOptionsFieldsClassified fails on an untagged field.
type Options struct {
	// Alpha is the significance level of the randomness test (Eq. 7).
	// The paper's experiments use 0.20.
	Alpha float64 `json:"alpha"`
	// SeqLen is the power sequence length fed to the randomness test at
	// each trial interval. The paper chooses 320 ("the gain in
	// statistical stability ... is marginal if it is any longer").
	SeqLen int `json:"seqLen"`
	// MaxInterval caps the trial independence interval; selection stops
	// there and marks the result Capped. A guard against non-mixing
	// behaviour rather than an expected outcome (paper observes
	// intervals of a few cycles).
	MaxInterval int `json:"maxInterval"`
	// Spec is the accuracy specification (paper: 5% error, 0.99
	// confidence).
	Spec stopping.Spec `json:"spec"`
	// NewCriterion builds the stopping criterion (paper default:
	// order statistics, their ref [7]).
	NewCriterion stopping.Factory `json:"-"`
	// Test is the randomness test (paper: ordinary runs test).
	Test randtest.Test `json:"-"`
	// CheckEvery is the stopping-criterion cadence in samples. Table 1
	// sample sizes are all congruent to SeqLen modulo 32.
	CheckEvery int `json:"checkEvery"`
	// MaxSamples aborts estimation if convergence is not reached; a
	// safety net, not a tuning knob.
	MaxSamples int `json:"maxSamples"`
	// WarmupCycles is the number of initial hidden (zero-delay) cycles
	// before interval selection, letting the state process approach
	// stationarity from reset. Zero-delay cycles are two to three orders
	// of magnitude cheaper than sampled ones, so a generous default is
	// nearly free; estimates on slowly-relaxing circuits are biased by
	// the reset transient if this is too small.
	WarmupCycles int `json:"warmupCycles"`
	// ReuseTestSamples feeds the accepted randomness-test sequence into
	// the stopping criterion as its first SeqLen samples. Table 1's
	// sample sizes (all = 320 + k*32) indicate the paper does this.
	ReuseTestSamples bool `json:"reuseTestSamples"`
	// Replications is the number of independent replications
	// EstimateParallel runs concurrently, 64 lanes per machine word and
	// up to sim.CompiledMaxLanes (512) per compiled session; more
	// replications than that take more sessions. 0 means the default of
	// 64 — one lane word. Ignored by the serial estimators.
	Replications int `json:"replications"`
	// Deprecated: Workers has no effect. The parallel estimators cut
	// replications by Ranges and run the shards on GOMAXPROCS
	// goroutines, which the GOMAXPROCS environment variable bounds. It
	// remains only because the benchmark module still sets it; Validate
	// still rejects a negative value.
	Workers int `json:"-"`
	// Mode selects the power-observation scenario for sampled cycles:
	// general-delay (event-driven, glitches included — the paper's
	// configuration and the zero-value default) or zero-delay (functional
	// transitions only, bit-parallel across replication lanes). It is
	// honoured by the estimators that build their own sessions
	// (EstimateParallel and friends); the session-based estimators
	// observe under the delay model the session they are handed was
	// built for (Testbench.NewSessionMode).
	Mode power.PowerMode `json:"mode"`
	// Deprecated: Backend has no effect. Every parallel estimate runs
	// on the compiled lane engine (sim.CompiledSession). It remains only
	// because the benchmark module still reads it.
	Backend sim.Backend `json:"-"`
	// Deprecated: SessionWorkers has no effect. Compiled sessions run
	// their programs in the one form internal/compile emits, on one
	// goroutine each; replication shards fill the cores. It remains only
	// because the benchmark module still reads it.
	SessionWorkers int `json:"-"`
	// Deprecated: CacheBudget has no effect, for the same reason as
	// SessionWorkers, and remains for the same reason.
	CacheBudget int `json:"-"`
	// Variance selects a variance-reduction transform for the sampling
	// phase (see internal/vr): antithetic replication pairing, or a
	// control-variate correction by the same-cycle zero-delay toggle
	// power. The zero value is the paper's plain estimator. Honoured by
	// the parallel estimators only (the transforms are defined over the
	// replication space); the serial estimators reject a non-plain mode.
	Variance vr.Spec `json:"variance"`
	// Breakdown enables per-node power attribution: the sampled phase
	// accumulates per-node transition counts alongside the power samples
	// and the Result carries a ranked dynamic+leakage report
	// (power.BreakdownReport). Counts are integers merged by addition, so
	// the report is bit-identical across shard layouts, worker counts and
	// any partition of the replication space. Honoured by the parallel
	// estimators only (the serial ones have no power model in scope);
	// costs one popcount per node word per sampled cycle when on, nothing
	// when off.
	Breakdown bool `json:"breakdown"`
	// Progress, if non-nil, is called from the estimator goroutine after
	// every merged block of samples (roughly every CheckEvery) with a
	// running snapshot of the estimate. It must be cheap; it is never
	// called concurrently with itself. Long-running callers (the
	// dipe-server job manager) use it to surface live job status. It does
	// not affect the estimate.
	Progress func(Progress) `json:"-"`
	// Metrics, if non-nil, receives process-wide telemetry (runs,
	// rounds, samples) from the Merger after every merged block — both
	// the in-process sampling tail and the cluster coordinator's merge
	// loop flow through it. Like Progress it never affects the estimate;
	// nil costs one branch per block.
	Metrics *Metrics `json:"-"`

	// pool, when positive, stands in for GOMAXPROCS in the shard layout
	// and the goroutine pool of newReplicationRun. Only tests in this
	// package set it, to vary the layout.
	pool int `json:"-"`
}

// Progress is a point-in-time snapshot of a running estimation,
// delivered to Options.Progress as samples accumulate.
type Progress struct {
	// Samples is the number of power samples consumed by the stopping
	// criterion so far.
	Samples int `json:"samples"`
	// Power is the running estimate in watts.
	Power float64 `json:"power"`
	// HalfWidth is the current confidence half-width in watts (+Inf
	// until the criterion can bound the estimate; encoding/json cannot
	// render that, so JSON writers map it to -1 first).
	HalfWidth float64 `json:"halfWidth"`
	// Interval is the independence interval in use.
	Interval int `json:"interval"`
	// Rounds is the number of replication rounds merged so far.
	Rounds int `json:"rounds"`
	// Elapsed is the wall-clock seconds since the sampling phase
	// started (this process's share of it, under a resumed job).
	Elapsed float64 `json:"elapsed"`
}

// DefaultOptions returns the paper's experimental configuration.
func DefaultOptions() Options {
	return Options{
		Alpha:            0.20,
		SeqLen:           320,
		MaxInterval:      64,
		Spec:             stopping.DefaultSpec(),
		NewCriterion:     stopping.OrderStatisticsFactory,
		Test:             randtest.OrdinaryRuns{},
		CheckEvery:       32,
		MaxSamples:       1 << 21,
		WarmupCycles:     512,
		ReuseTestSamples: true,
	}
}

// Validate checks the options for usability.
func (o Options) Validate() error {
	if o.Alpha <= 0 || o.Alpha >= 1 {
		return fmt.Errorf("core: significance level %g outside (0,1)", o.Alpha)
	}
	if o.SeqLen < 32 {
		return fmt.Errorf("core: sequence length %d too short for the runs test", o.SeqLen)
	}
	if o.MaxInterval < 0 {
		return fmt.Errorf("core: negative MaxInterval %d", o.MaxInterval)
	}
	if err := o.Spec.Validate(); err != nil {
		return err
	}
	if o.NewCriterion == nil {
		return fmt.Errorf("core: NewCriterion is nil")
	}
	if o.Test == nil {
		return fmt.Errorf("core: Test is nil")
	}
	if o.CheckEvery < 1 {
		return fmt.Errorf("core: CheckEvery %d must be >= 1", o.CheckEvery)
	}
	if o.MaxSamples < o.SeqLen+o.CheckEvery {
		return fmt.Errorf("core: MaxSamples %d below SeqLen+CheckEvery", o.MaxSamples)
	}
	if o.WarmupCycles < 0 {
		return fmt.Errorf("core: negative WarmupCycles %d", o.WarmupCycles)
	}
	if o.Replications < 0 {
		return fmt.Errorf("core: negative Replications %d", o.Replications)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative Workers %d", o.Workers)
	}
	if err := o.Mode.Validate(); err != nil {
		return err
	}
	reps := o.Replications
	if reps == 0 {
		reps = sim.MaxLanes
	}
	if err := o.Variance.Validate(reps, o.Mode.IsZeroDelay()); err != nil {
		return err
	}
	return nil
}

// Testbench bundles a circuit with its timing and power models — the
// "Load Circuit Description / Timing Model / Power Model" box of Fig. 1.
// One Testbench serves any number of sessions and estimator runs.
type Testbench struct {
	Circuit *netlist.Circuit
	Delays  *delay.Table
	Model   *power.Model
	weights []float64
}

// NewTestbench instruments a frozen circuit with the given models.
func NewTestbench(c *netlist.Circuit, dm delay.Model, cm power.CapModel, supply power.Supply) *Testbench {
	m := power.NewModel(c, cm, supply)
	return &Testbench{
		Circuit: c,
		Delays:  delay.BuildTable(c, dm),
		Model:   m,
		weights: m.Weights(),
	}
}

// DefaultTestbench instruments a circuit with the experiment defaults:
// fanout-loaded delays, the default capacitance model, 5 V / 20 MHz.
func DefaultTestbench(c *netlist.Circuit) *Testbench {
	return NewTestbench(c, delay.DefaultFanoutLoaded(), power.DefaultCapModel(), power.DefaultSupply())
}

// NewSession creates a simulation session over the testbench with the
// given input source, observing its sampled cycles event-driven under
// the testbench's delay table (general-delay, the default). Every
// estimator runs on this compiled session; tests compare it against
// sim.ScalarSession.
func (tb *Testbench) NewSession(src vectors.Source) *sim.Session {
	return sim.NewSession(tb.Circuit, tb.Delays, src, tb.weights)
}

// NewSessionMode creates a session whose sampled cycles are observed
// under the given power mode: event-driven under the testbench's delay
// table, or by the zero-delay toggle diff. The zero mode value gives
// exactly NewSession's general-delay behaviour.
func (tb *Testbench) NewSessionMode(src vectors.Source, mode power.PowerMode) *sim.Session {
	if mode.IsZeroDelay() {
		return sim.NewSession(tb.Circuit, nil, src, tb.weights)
	}
	return tb.NewSession(src)
}

// Weights exposes the per-transition power weights (watts per
// transition); read-only.
func (tb *Testbench) Weights() []float64 { return tb.weights }
