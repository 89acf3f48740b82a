package dipe

import (
	"context"
	"fmt"
	"io"
	"os"

	"repro/internal/bench89"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/markov"
	"repro/internal/maxpower"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/proba"
	"repro/internal/randtest"
	"repro/internal/refsim"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/stopping"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// Circuit is a frozen gate-level sequential circuit.
type Circuit = netlist.Circuit

// Options configures the DIPE estimation procedure (significance level,
// sequence length, accuracy specification, stopping criterion, ...).
type Options = core.Options

// Result is the outcome of one estimation run.
type Result = core.Result

// Testbench bundles a circuit with timing and power models.
type Testbench = core.Testbench

// Session drives a circuit through clock cycles (two-phase simulation):
// zero-delay hidden cycles and sampled cycles observed under the delay
// model the session was built for (Testbench.NewSession,
// NewSessionMode), on the circuit's compiled word-level programs. Every
// estimator runs on it.
type Session = sim.Session

// Source produces primary-input patterns, one per clock cycle.
type Source = vectors.Source

// Spec is the accuracy specification: relative error bound at a
// confidence level.
type Spec = stopping.Spec

// Criterion is a pluggable stopping criterion.
type Criterion = stopping.Criterion

// IntervalSelection is the outcome of the independence-interval
// selection procedure (Fig. 2 of the paper).
type IntervalSelection = core.IntervalSelection

// ZPoint is one point of a z-statistic-vs-interval trace (Fig. 3).
type ZPoint = core.ZPoint

// Reference is a long-run consecutive-cycle reference estimate (the
// paper's "SIM" column).
type Reference = refsim.Result

// DefaultOptions returns the paper's experimental configuration:
// alpha = 0.20, sequence length 320, 5% error at 0.99 confidence,
// order-statistics stopping criterion, ordinary runs test.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultSpec returns the paper's accuracy specification (5%, 0.99).
func DefaultSpec() Spec { return stopping.DefaultSpec() }

// NewTestbench instruments a circuit with the default models: fanout-
// loaded gate delays, fanout-proportional load capacitances, 5 V supply
// and 20 MHz clock (the paper's operating point).
func NewTestbench(c *Circuit) *Testbench { return core.DefaultTestbench(c) }

// NewCustomTestbench instruments a circuit with explicit models.
func NewCustomTestbench(c *Circuit, dm delay.Model, cm power.CapModel, s power.Supply) *Testbench {
	return core.NewTestbench(c, dm, cm, s)
}

// DelayModel maps gate structure to propagation delay.
type DelayModel = delay.Model

// CapModel assigns load capacitances from fanout structure.
type CapModel = power.CapModel

// Supply is the electrical operating point (VDD, clock period).
type Supply = power.Supply

// Delay models for NewCustomTestbench.
var (
	// ZeroDelayModel makes every gate switch instantly: functional
	// transitions only, no glitches.
	ZeroDelayModel DelayModel = delay.Zero{}
	// UnitDelayModel assigns one time unit per gate.
	UnitDelayModel DelayModel = delay.Unit{}
	// FanoutDelayModel is the default general-delay model
	// (d = 200ps + 100ps × fanout).
	FanoutDelayModel DelayModel = delay.DefaultFanoutLoaded()
)

// PowerMode selects the power-observation scenario for sampled cycles:
// general-delay (event-driven, glitches included — the paper's default)
// or zero-delay (functional transitions only, observed word-parallel
// across replication lanes so sampled cycles run at compiled-engine
// throughput). Set Options.Mode, or build sessions with
// Testbench.NewSessionMode, which observes under the testbench's delay
// table or, in zero-delay mode, without one. Result.Engine and
// Result.DelayModel record what actually observed a run's sampled
// cycles.
type PowerMode = power.PowerMode

// Power modes for Options.Mode / Testbench.NewSessionMode.
const (
	// GeneralDelayMode counts every transition, glitches included, with
	// the event-driven simulator (the default; equals the zero value).
	GeneralDelayMode = power.ModeGeneralDelay
	// ZeroDelayMode counts functional transitions only, observed by the
	// compiled word-level engine (up to 512 lanes per session) under
	// EstimateParallel.
	ZeroDelayMode = power.ModeZeroDelay
)

// ParsePowerMode resolves a user-supplied mode string ("general-delay",
// "zero-delay", or the aliases "general"/"zero"; empty means
// general-delay).
func ParsePowerMode(s string) (PowerMode, error) { return power.ParseMode(s) }

// PowerModes lists the valid canonical power modes.
func PowerModes() []PowerMode { return power.Modes() }

// BreakdownReport is the per-node power attribution of an estimation
// run: ranked per-gate dynamic power from accumulated transition counts
// plus static leakage, with module-level aggregation for hierarchical
// names. Enable with Options.Breakdown under EstimateParallel; the
// report arrives in Result.Breakdown.
type BreakdownReport = power.BreakdownReport

// BreakdownRow is one node's share of the circuit's power in a
// BreakdownReport.
type BreakdownRow = power.BreakdownRow

// ModuleRow aggregates breakdown rows by hierarchical module prefix.
type ModuleRow = power.ModuleRow

// NodeClass tags what a breakdown row attributes power to ("gate",
// "latch"; primary inputs and constants are excluded from ranking).
type NodeClass = power.NodeClass

// LeakModel parameterizes the per-gate static leakage component of the
// power model (see NewCustomTestbench / power.NewModelLeak).
type LeakModel = power.LeakModel

// DefaultLeakModel returns the default static-leakage coefficients.
func DefaultLeakModel() LeakModel { return power.DefaultLeakModel() }

// VarianceMode names a variance-reduction transform for the sampling
// phase; see internal/vr for the statistics.
type VarianceMode = vr.Mode

// VarianceSpec configures variance reduction via Options.Variance: the
// mode plus optional calibration overrides. The zero value is the plain
// estimator.
type VarianceSpec = vr.Spec

// Variance-reduction modes for Options.Variance.Mode.
const (
	// VarianceNone is the paper's plain estimator (the zero value).
	VarianceNone = vr.ModeNone
	// VarianceAntithetic pairs replication lanes with mirrored input
	// streams and feeds the stopping criterion pair means. Lane-parallel
	// simulation makes the mirrored lanes free: every 64-lane word of a
	// compiled step yields 32 negatively correlated pairs.
	VarianceAntithetic = vr.ModeAntithetic
	// VarianceControlVariate subtracts the regression-scaled, centred
	// same-cycle zero-delay toggle power from every general-delay
	// sample. The coefficient is estimated from the phase-1 sequence and
	// the covariate mean from a cheap 64-lane zero-delay pre-run.
	VarianceControlVariate = vr.ModeControlVariate
)

// ParseVarianceMode resolves a user-supplied variance-reduction mode
// string ("none", "antithetic", "control-variate", or the aliases
// "anti"/"cv"; empty means none).
func ParseVarianceMode(s string) (VarianceMode, error) { return vr.ParseMode(s) }

// VarianceModes lists the valid canonical variance-reduction modes.
func VarianceModes() []VarianceMode { return vr.Modes() }

// AntitheticSource returns the antithetic twin of a freshly built
// stochastic source: same configuration and seed, every underlying
// uniform mirrored (u -> 1-u), so the twin keeps the exact input
// distribution while anticorrelating with the original draw for draw.
func AntitheticSource(s Source) (Source, error) { return vectors.Antithetic(s) }

// DefaultCapModel returns the default load-capacitance coefficients
// (30 fF + 10 fF per fanout).
func DefaultCapModel() CapModel { return power.DefaultCapModel() }

// DefaultSupply returns the paper's operating point: 5 V, 20 MHz.
func DefaultSupply() Supply { return power.DefaultSupply() }

// Estimate runs the full DIPE flow on a session: warm-up, independence
// interval selection, two-phase sampling, stopping criterion.
func Estimate(s *Session, opts Options) (Result, error) { return core.Estimate(s, opts) }

// SourceFactory builds an independent input source for a given seed;
// estimators that run many replications use it to give every
// replication fresh, reproducible randomness. The estimators call it
// only on their caller's goroutine, but may step the sources it returns
// on different goroutines at once, so those sources must not share
// mutable state.
type SourceFactory = vectors.Factory

// NewIIDSourceFactory returns a factory of i.i.d. Bernoulli(p) sources.
func NewIIDSourceFactory(width int, p float64) SourceFactory {
	return vectors.IIDFactory(width, p)
}

// NewLagCorrelatedSourceFactory returns a factory of lag-1 Markov
// sources (see NewLagCorrelatedSource).
func NewLagCorrelatedSourceFactory(width int, p, rho float64) SourceFactory {
	return vectors.LagCorrelatedFactory(width, p, rho)
}

// EstimateParallel runs the DIPE flow with Options.Replications
// independent replications advanced concurrently: hidden cycles run on
// the compiled word-level zero-delay engine (up to 512 replications per
// session, 64 per machine word) and sampled cycles on the engine
// Options.Mode selects — a per-shard event-driven lane engine, 64
// replications per pass, under the default general-delay mode, or
// word-level transition counting on the
// compiled register file under ZeroDelayMode (sampled cycles then cost
// about the same as hidden ones). Replication r is seeded
// baseSeed+1+r (interval selection uses baseSeed), and samples merge
// into the stopping criterion in a fixed order, so results are
// reproducible and independent of the worker count.
func EstimateParallel(tb *Testbench, src SourceFactory, baseSeed int64, opts Options) (Result, error) {
	return core.EstimateParallel(tb, src, baseSeed, opts)
}

// EstimateParallelWithInterval is EstimateParallel at a fixed
// independence interval, bypassing selection.
func EstimateParallelWithInterval(tb *Testbench, src SourceFactory, baseSeed int64, opts Options, interval int) (Result, error) {
	return core.EstimateParallelWithInterval(tb, src, baseSeed, opts, interval)
}

// EstimateParallelCtx is EstimateParallel with cancellation: the
// sampling loop checks ctx between stopping-criterion blocks and
// returns the partial (unconverged) result together with ctx.Err() when
// the context is cancelled. Combine with Options.Progress for live
// status of long runs.
func EstimateParallelCtx(ctx context.Context, tb *Testbench, src SourceFactory, baseSeed int64, opts Options) (Result, error) {
	return core.EstimateParallelCtx(ctx, tb, src, baseSeed, opts)
}

// Progress is a point-in-time snapshot of a running estimation,
// delivered to Options.Progress as samples accumulate.
type Progress = core.Progress

// ServerConfig sizes the estimation service: frozen-circuit cache
// capacity, concurrent-job pool width, pending-queue bound, and the
// job dispatcher (nil = in-process; a ClusterCoordinator shards jobs
// across dipe-worker processes). The zero value means defaults
// everywhere.
type ServerConfig = service.Config

// Server is a long-running power-estimation service: a circuit registry
// with an LRU cache of frozen circuits, an asynchronous job pool over
// EstimateParallel, and an HTTP/JSON API (submit/poll/wait/cancel,
// batch fan-out, netlist upload, statistics). cmd/dipe-server is a thin
// wrapper around it; see internal/service for the endpoint table.
type Server = service.Service

// NewServer builds an estimation service and starts its worker pool.
// Mount Handler() on an http.Server (or httptest.Server) and Close()
// on shutdown.
func NewServer(cfg ServerConfig) *Server { return service.New(cfg) }

// DefaultServerConfig returns the default service sizing.
func DefaultServerConfig() ServerConfig { return service.DefaultConfig() }

// ClusterConfig configures a distributed-estimation coordinator:
// initial worker URLs, heartbeat cadence, lease deadline.
type ClusterConfig = cluster.CoordinatorConfig

// ClusterCoordinator shards estimation jobs across dipe-worker
// processes. It plugs into ServerConfig.Dispatcher, making every job
// submitted to the server run on the cluster — bit-identically to
// local execution (same replication seeds, same merge order, same
// pooled stopping decision). Workers can be listed up front or
// registered at runtime (AddWorker / POST /v1/cluster/workers).
type ClusterCoordinator = cluster.Coordinator

// NewClusterCoordinator builds a cluster dispatcher and starts its
// worker heartbeat; Close it on shutdown. Wire it into a server with
//
//	coord, _ := dipe.NewClusterCoordinator(dipe.ClusterConfig{Workers: urls})
//	srv := dipe.NewServer(dipe.ServerConfig{Dispatcher: coord})
func NewClusterCoordinator(cfg ClusterConfig) (*ClusterCoordinator, error) {
	return cluster.NewCoordinator(cfg)
}

// ClusterWorkerConfig sizes a cluster worker (installed-circuit table).
type ClusterWorkerConfig = cluster.WorkerConfig

// ClusterWorker is the stateless sampling node of an estimation
// cluster; cmd/dipe-worker is a thin wrapper around it. Mount
// Handler() on an http.Server reachable by the coordinator.
type ClusterWorker = cluster.Worker

// NewClusterWorker builds a cluster worker service.
func NewClusterWorker(cfg ClusterWorkerConfig) *ClusterWorker { return cluster.NewWorker(cfg) }

// EstimateWithInterval runs the sampling phase at a fixed interval,
// bypassing selection (the fixed-warm-up baseline of the paper's ref [9]).
func EstimateWithInterval(s *Session, opts Options, interval int) (Result, error) {
	return core.EstimateWithInterval(s, opts, interval)
}

// SelectInterval runs only the independence-interval selection procedure.
func SelectInterval(s *Session, opts Options) (IntervalSelection, error) {
	return core.SelectInterval(s, opts)
}

// ZTrace collects the runs-test z statistic at trial intervals 0..maxK
// (the data behind Fig. 3).
func ZTrace(s *Session, opts Options, maxK, seqLen int) ([]ZPoint, error) {
	return core.ZTrace(s, opts, maxK, seqLen)
}

// Diagnostics audits a power sample collected at a fixed interval with a
// battery of randomness tests and the autocorrelation function.
type Diagnostics = core.Diagnostics

// Diagnose collects a fresh n-sample power sequence at the given
// interval and audits its randomness.
func Diagnose(s *Session, interval, n int) (Diagnostics, error) {
	return core.Diagnose(s, interval, n)
}

// EstimateBatchMeans is the consecutive-cycle baseline (the paper's ref
// [1] style): every cycle is simulated general-delay; batch means feed
// the stopping criterion.
func EstimateBatchMeans(s *Session, opts Options, batch int) (Result, error) {
	return core.EstimateBatchMeans(s, opts, batch)
}

// Reference simulation: mean power over `cycles` consecutive cycles
// after `warmup` hidden cycles.
func RunReference(s *Session, warmup, cycles int) Reference { return refsim.Run(s, warmup, cycles) }

// Benchmark returns a built-in benchmark circuit: the genuine s27, or a
// deterministic synthetic circuit matching the published ISCAS89
// signature (s208 ... s15850). See internal/bench89 for the substitution
// rationale.
func Benchmark(name string) (*Circuit, error) { return bench89.Get(name) }

// BenchmarkNames lists the built-in benchmark names in the paper's table
// order (s27 excluded, as in the paper).
func BenchmarkNames() []string { return bench89.Names() }

// ParseBench reads a circuit in ISCAS89 .bench format.
func ParseBench(name string, r io.Reader) (*Circuit, error) { return netlist.ParseBench(name, r) }

// LoadBench reads a .bench file from disk.
func LoadBench(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dipe: %w", err)
	}
	defer f.Close()
	return netlist.ParseBench(path, f)
}

// WriteBench writes a circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return netlist.WriteBench(w, c) }

// ParseBLIF reads a circuit in Berkeley Logic Interchange Format
// (structural subset: .inputs/.outputs/.latch/.names); covers are
// synthesized into the gate set.
func ParseBLIF(name string, r io.Reader) (*Circuit, error) { return netlist.ParseBLIF(name, r) }

// LoadBLIF reads a .blif file from disk.
func LoadBLIF(path string) (*Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dipe: %w", err)
	}
	defer f.Close()
	return netlist.ParseBLIF(path, f)
}

// NewIIDSource returns a source whose bits are independent Bernoulli(p)
// variables — the paper's input model with p = 0.5.
func NewIIDSource(width int, p float64, seed int64) Source {
	return vectors.NewIID(width, p, seed)
}

// NewLagCorrelatedSource returns a temporally correlated source: each
// bit is a two-state Markov chain with stationary probability p and
// lag-1 autocorrelation rho.
func NewLagCorrelatedSource(width int, p, rho float64, seed int64) Source {
	return vectors.NewLagCorrelated(width, p, rho, seed)
}

// NewSpatialSource returns a spatially correlated source (groups of bits
// share a random driver).
func NewSpatialSource(width, groupSize int, p, flip float64, seed int64) Source {
	return vectors.NewSpatial(width, groupSize, p, flip, seed)
}

// Stopping-criterion factories, selectable via Options.NewCriterion.
var (
	// NormalCriterion is the CLT-based parametric criterion (ref [11]).
	NormalCriterion = stopping.NormalFactory
	// KSCriterion is the Kolmogorov–Smirnov/DKW band criterion (ref [6]).
	KSCriterion = stopping.KSFactory
	// OrderStatisticsCriterion is the distribution-free order-statistics
	// criterion (ref [7]), the paper's default.
	OrderStatisticsCriterion = stopping.OrderStatisticsFactory
)

// Randomness tests, selectable via Options.Test.
var (
	// OrdinaryRunsTest is the paper's runs test about the median.
	OrdinaryRunsTest = randtest.OrdinaryRuns{}
	// UpDownRunsTest is the runs-up-and-down variant.
	UpDownRunsTest = randtest.UpDownRuns{}
	// VonNeumannTest is the serial-correlation ratio test.
	VonNeumannTest = randtest.VonNeumann{}
	// LjungBoxTest pools autocorrelation evidence over multiple lags.
	LjungBoxTest = randtest.LjungBox{}
)

// CompositeTest builds a battery that accepts only if every component
// test accepts (worst |z| is reported).
func CompositeTest(tests ...randtest.Test) randtest.Test {
	return randtest.Composite{Tests: tests}
}

// FormatWatts renders a power value with an engineering prefix.
func FormatWatts(w float64) string { return power.FormatWatts(w) }

// MaxPowerOptions configures the maximum-power search.
type MaxPowerOptions = maxpower.Options

// MaxPowerResult is the peak cycle found by a maximum-power search.
type MaxPowerResult = maxpower.Result

// MaxPower searches for the single-cycle peak power of the circuit
// (simulation-based maximum power estimation, the companion problem of
// the paper's ref [8]) using bit-flip hill climbing with restarts.
func MaxPower(tb *Testbench, opts MaxPowerOptions) (MaxPowerResult, error) {
	return maxpower.HillClimb(tb.Circuit, tb.Delays, tb.Weights(), opts)
}

// MaxPowerRandom is the Monte-Carlo baseline: best of Budget random
// cycles.
func MaxPowerRandom(tb *Testbench, opts MaxPowerOptions) (MaxPowerResult, error) {
	return maxpower.RandomSearch(tb.Circuit, tb.Delays, tb.Weights(), opts)
}

// DefaultMaxPowerOptions returns a search budget adequate for benchmark
// circuits.
func DefaultMaxPowerOptions() MaxPowerOptions { return maxpower.DefaultOptions() }

// SignalStatistics is the probabilistic baseline's per-node output.
type SignalStatistics = proba.Result

// AnalyzeProbabilities runs the classical signal-probability power
// estimation baseline (the paper's refs [2-4] style): probability
// propagation under spatial independence with latch fixpoint iteration.
// Its Power method converts activities into watts. See internal/proba
// for the documented approximations.
func AnalyzeProbabilities(c *Circuit, inputP []float64) (*SignalStatistics, error) {
	return proba.Analyze(c, inputP, proba.DefaultOptions())
}

// STG is a state transition graph with transition probabilities — the
// substrate of Section III's exact "first approach". Its methods solve
// the Chapman–Kolmogorov equations (Stationary) and bound warm-up
// periods (MixingTime).
type STG = markov.STG

// ExtractSTG enumerates the reachable state transition graph of a small
// sequential circuit under mutually independent Bernoulli(p[i]) inputs.
// It fails beyond 20 latches / 16 inputs — deliberately mirroring the
// exponential wall that motivates the statistical approach.
func ExtractSTG(c *Circuit, p []float64) (*STG, error) { return markov.Extract(c, p) }

// StateSamplingResult is the outcome of the exact state-sampling
// estimator.
type StateSamplingResult = markov.EstimateResult

// EstimateByStateSampling runs the paper's Section III "first approach":
// i.i.d. power samples drawn directly from the stationary state
// distribution of the extracted STG. Only feasible on small circuits.
func EstimateByStateSampling(s *Session, g *STG, stationary, inputP []float64,
	spec Spec, newCriterion func(Spec) Criterion, seed int64) (StateSamplingResult, error) {
	return markov.EstimateByStateSampling(s, g, stationary, inputP, spec, newCriterion, seed, 32, 1<<21)
}
