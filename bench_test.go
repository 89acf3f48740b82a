// Benchmark harness: one benchmark per table/figure of the paper plus
// micro-benchmarks of the simulation and statistics engines.
//
//	go test -bench=. -benchmem
//
// The table/figure benchmarks run scaled-down configurations per
// iteration (the full campaigns live in cmd/dipe-experiments); custom
// metrics report the paper's machine-independent costs: samples per run
// and simulated cycles per run.
package dipe_test

import (
	"slices"
	"testing"
	"time"

	"repro"
	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/experiments"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/randtest"
	"repro/internal/sim"
	"repro/internal/stopping"
	"repro/internal/vectors"
)

// table1Circuits is the benchmark subset exercised per iteration; the
// spread covers small, medium and large table rows.
var table1Circuits = []string{"s27", "s298", "s832", "s1494"}

// BenchmarkTable1Estimate measures one full DIPE estimation run (Table 1
// row) per circuit: interval selection + sampling to the paper's spec.
func BenchmarkTable1Estimate(b *testing.B) {
	for _, name := range table1Circuits {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			var samples, cycles float64
			for i := 0; i < b.N; i++ {
				res, err := dipe.Estimate(tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, int64(i+1))), dipe.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				samples += float64(res.SampleSize)
				cycles += float64(res.TotalCycles())
			}
			b.ReportMetric(samples/float64(b.N), "samples/run")
			b.ReportMetric(cycles/float64(b.N), "cycles/run")
		})
	}
}

// BenchmarkTable1Reference measures the brute-force SIM reference that
// Table 1's estimates are compared against (per 10k cycles).
func BenchmarkTable1Reference(b *testing.B) {
	for _, name := range []string{"s298", "s1494"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dipe.RunReference(tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, int64(i+1))), 64, 10_000)
			}
		})
	}
}

// BenchmarkTable2Run measures the repeated-run experiment of Table 2 at
// a reduced run count (the statistic aggregation is the same code path
// the full campaign uses).
func BenchmarkTable2Run(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Circuits = []string{"s27"}
	cfg.Runs = 5
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3ZTrace measures the z-statistic sweep of Fig. 3
// (trial intervals 0..10) at a reduced sequence length.
func BenchmarkFigure3ZTrace(b *testing.B) {
	c := bench89.MustGet("s1494")
	tb := dipe.NewTestbench(c)
	for i := 0; i < b.N; i++ {
		s := tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, int64(i+1)))
		if _, err := dipe.ZTrace(s, dipe.DefaultOptions(), 10, 1_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSeqLen measures ablation A1 (sequence-length sweep)
// at a reduced configuration.
func BenchmarkAblationSeqLen(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 3
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSeqLen(cfg, "s298", []int{80, 320}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationAlpha measures ablation A2 (significance sweep).
func BenchmarkAblationAlpha(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 3
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAlpha(cfg, "s27", []float64{0.1, 0.3}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationStopping measures ablation A3 (criterion comparison).
func BenchmarkAblationStopping(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 3
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationStopping(cfg, "s27"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWarmup measures ablation A4 (dynamic vs fixed
// warm-up cost).
func BenchmarkAblationWarmup(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 3
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationWarmup(cfg, "s27", []int{20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationInputs measures ablation A5 (correlated inputs).
func BenchmarkAblationInputs(b *testing.B) {
	cfg := experiments.DefaultConfig()
	cfg.Runs = 3
	cfg.RefCycles = func(int) int { return 5_000 }
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationInputs(cfg, "s27", []float64{0, 0.5}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- engine micro-benchmarks ---------------------------------------------

// BenchmarkEventDrivenCycle measures one sampled (general-delay) clock
// cycle of the scalar event-driven engine across circuit sizes, through
// the ScalarSession that drives it cycle by cycle. The scalar engine is
// the oracle of the lane engine a general-delay session builds from its
// delay table (timed by BenchmarkCompiledSampled).
func BenchmarkEventDrivenCycle(b *testing.B) {
	for _, name := range []string{"s298", "s1494", "s5378", "s15850"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			s := sim.NewScalarSession(c, sim.NewEventDriven(c, tb.Delays), dipe.NewIIDSource(len(c.Inputs), 0.5, 1), tb.Weights())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepSampled(nil)
			}
			b.ReportMetric(float64(s.Events()), "events/cycle")
		})
	}
}

// BenchmarkZeroDelayCycle measures one hidden cycle of the scalar
// zero-delay simulator (ScalarSession.StepHidden), the interpreted
// reference for the compiled Step program that advances a Session
// through the independence interval.
func BenchmarkZeroDelayCycle(b *testing.B) {
	for _, name := range []string{"s298", "s832", "s1494", "s5378", "s15850"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			s := sim.NewScalarSession(c, sim.NewZeroDelayToggle(c), dipe.NewIIDSource(len(c.Inputs), 0.5, 1), tb.Weights())
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepHidden()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkCompiledHidden measures one hidden cycle of a 64-lane
// compiled session (built without a delay table; hidden cycles never
// observe), the lane engine every parallel estimate runs: 64
// replications advance per iteration, so the cycles/sec metric counts
// per-replication clock cycles and is directly comparable with
// BenchmarkZeroDelayCycle's.
func BenchmarkCompiledHidden(b *testing.B) {
	for _, name := range []string{"s298", "s832", "s1494", "s5378"} {
		c := bench89.MustGet(name)
		b.Run(name, func(b *testing.B) {
			s := sim.NewCompiledSession(c, nil, laneSources(c))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepHidden()
			}
			b.ReportMetric(float64(b.N*sim.MaxLanes)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkCompiledSampled measures one general-delay sampled cycle of
// a 64-lane compiled session built with the testbench's delay table,
// the production path of a general-delay estimate's tail: StepSampled
// observes all 64 lanes with one Cycle of the session's event-driven
// lane engine.
func BenchmarkCompiledSampled(b *testing.B) {
	for _, name := range []string{"s298", "s1494"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			s := sim.NewCompiledSession(c, tb.Delays, laneSources(c))
			powers := make([]float64, sim.MaxLanes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepSampled(tb.Weights(), powers)
			}
			b.ReportMetric(float64(b.N*sim.MaxLanes)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// BenchmarkCompiledSampledZeroDelay measures one zero-delay sampled
// cycle of a 64-lane compiled session built without a delay table: all
// 64 lanes observed by word-level transition counting, no scalar
// extraction at all.
func BenchmarkCompiledSampledZeroDelay(b *testing.B) {
	for _, name := range []string{"s298", "s1494"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		b.Run(name, func(b *testing.B) {
			s := sim.NewCompiledSession(c, nil, laneSources(c))
			powers := make([]float64, sim.MaxLanes)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.StepSampled(tb.Weights(), powers)
			}
			b.ReportMetric(float64(b.N*sim.MaxLanes)/b.Elapsed().Seconds(), "cycles/sec")
		})
	}
}

// laneSources returns one word of IID lane sources for circuit c, lane
// k seeded k+1.
func laneSources(c *netlist.Circuit) []vectors.Source {
	srcs := make([]vectors.Source, sim.MaxLanes)
	for k := range srcs {
		srcs[k] = vectors.NewIID(len(c.Inputs), 0.5, int64(k+1))
	}
	return srcs
}

// BenchmarkEstimateParallel measures one full bit-parallel estimation
// run (64 replications, default workers) next to BenchmarkTable1Estimate.
func BenchmarkEstimateParallel(b *testing.B) {
	for _, name := range []string{"s298", "s1494"} {
		c := bench89.MustGet(name)
		tb := dipe.NewTestbench(c)
		factory := dipe.NewIIDSourceFactory(len(c.Inputs), 0.5)
		b.Run(name, func(b *testing.B) {
			var samples, cycles float64
			for i := 0; i < b.N; i++ {
				res, err := dipe.EstimateParallel(tb, factory, int64(i+1), dipe.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				samples += float64(res.SampleSize)
				cycles += float64(res.TotalCycles())
			}
			b.ReportMetric(samples/float64(b.N), "samples/run")
			b.ReportMetric(cycles/float64(b.N), "cycles/run")
		})
	}
}

// BenchmarkRunsTest measures the ordinary runs test on a
// paper-sized (320) and a Fig. 3-sized (10000) sequence.
func BenchmarkRunsTest(b *testing.B) {
	for _, n := range []int{320, 10_000} {
		src := vectors.NewIID(1, 0.5, 1)
		buf := make([]bool, 1)
		seq := make([]float64, n)
		for i := range seq {
			src.Next(buf)
			if buf[0] {
				seq[i] = 1
			}
			seq[i] += float64(i%7) * 0.1
		}
		b.Run(benchName("L", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				randtest.OrdinaryRuns{}.Apply(seq)
			}
		})
	}
}

// BenchmarkStoppingCriteria measures per-sample cost of each criterion.
func BenchmarkStoppingCriteria(b *testing.B) {
	for _, f := range []stopping.Factory{
		stopping.NormalFactory, stopping.KSFactory, stopping.OrderStatisticsFactory,
	} {
		crit := f(stopping.DefaultSpec())
		b.Run(crit.Name(), func(b *testing.B) {
			crit.Reset()
			for i := 0; i < b.N; i++ {
				crit.Add(float64(i % 97))
				if i%32 == 31 {
					crit.Done()
				}
			}
		})
	}
}

// BenchmarkSTGExtract measures exact STG extraction on s27 (the
// feasibility boundary of the paper's "first approach").
func BenchmarkSTGExtract(b *testing.B) {
	c := bench89.S27()
	p := []float64{0.5, 0.5, 0.5, 0.5}
	for i := 0; i < b.N; i++ {
		if _, err := dipe.ExtractSTG(c, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIntervalSelection measures the Fig. 2 procedure alone.
func BenchmarkIntervalSelection(b *testing.B) {
	c := bench89.MustGet("s298")
	tb := dipe.NewTestbench(c)
	for i := 0; i < b.N; i++ {
		s := tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, int64(i+1)))
		if _, err := dipe.SelectInterval(s, dipe.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase1 measures phase 1 of every estimator — warm-up plus
// the Fig. 2 interval selection — on s1494, once on the ScalarSession
// oracle and once on the compiled Session the estimators run it on.
// Both select the same interval from bit-identical samples; cycles/sec
// counts hidden plus sampled cycles.
func BenchmarkPhase1(b *testing.B) {
	c := bench89.MustGet("s1494")
	tb := dipe.NewTestbench(c)
	opts := dipe.DefaultOptions()
	for _, mode := range []dipe.PowerMode{dipe.ZeroDelayMode, dipe.GeneralDelayMode} {
		for _, compiled := range []bool{false, true} {
			name := mode.String() + "/scalar"
			if compiled {
				name = mode.String() + "/compiled"
			}
			b.Run(name, func(b *testing.B) {
				var cycles uint64
				for i := 0; i < b.N; i++ {
					src := dipe.NewIIDSource(len(c.Inputs), 0.5, int64(i+1))
					var col core.Collector
					var count func() uint64
					if compiled {
						s := tb.NewSessionMode(src, mode)
						s.StepHiddenN(opts.WarmupCycles)
						col, count = s, func() uint64 { return s.HiddenCycles + s.SampledCycles }
					} else {
						var engine sim.PowerEngine = sim.NewEventDriven(c, tb.Delays)
						if mode.IsZeroDelay() {
							engine = sim.NewZeroDelayToggle(c)
						}
						s := sim.NewScalarSession(c, engine, src, tb.Weights())
						s.StepHiddenN(opts.WarmupCycles)
						col, count = s, func() uint64 { return s.HiddenCycles + s.SampledCycles }
					}
					if _, err := core.SelectInterval(col, opts); err != nil {
						b.Fatal(err)
					}
					cycles += count()
				}
				b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
	}
}

// BenchmarkGenerate measures synthetic circuit generation.
func BenchmarkGenerate(b *testing.B) {
	sig, _ := bench89.Lookup("s5378")
	for i := 0; i < b.N; i++ {
		if _, err := bench89.Generate(sig); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSessionCreation measures testbench + session setup for the
// largest circuit (amortized across runs in the campaigns).
func BenchmarkSessionCreation(b *testing.B) {
	c := bench89.MustGet("s15850")
	dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = 1
	}
	for i := 0; i < b.N; i++ {
		sim.NewSession(c, dt, vectors.NewIID(len(c.Inputs), 0.5, 1), w)
	}
}

// BenchmarkProbabilisticAnalysis measures the signal-probability
// baseline (B1's cheap path) across sizes.
func BenchmarkProbabilisticAnalysis(b *testing.B) {
	for _, name := range []string{"s298", "s5378"} {
		c := bench89.MustGet(name)
		p := make([]float64, len(c.Inputs))
		for i := range p {
			p[i] = 0.5
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := dipe.AnalyzeProbabilities(c, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaxPowerSearch times the two peak-power searches `dipe -max`
// runs, the hill climb (dipe.MaxPower) and the random search
// (dipe.MaxPowerRandom), at a budget of 512 simulated cycles per
// search; cycles/sec counts the candidate cycles they evaluated.
func BenchmarkMaxPowerSearch(b *testing.B) {
	searches := []struct {
		name string
		run  func(*dipe.Testbench, dipe.MaxPowerOptions) (dipe.MaxPowerResult, error)
	}{{"hill-climb", dipe.MaxPower}, {"random", dipe.MaxPowerRandom}}
	for _, name := range []string{"s1494", "s5378"} {
		tb := dipe.NewTestbench(bench89.MustGet(name))
		for _, search := range searches {
			b.Run(name+"/"+search.name, func(b *testing.B) {
				cycles := 0
				for i := 0; i < b.N; i++ {
					opts := dipe.DefaultMaxPowerOptions()
					opts.Budget = 512
					opts.Seed = int64(i + 1)
					r, err := search.run(tb, opts)
					if err != nil {
						b.Fatal(err)
					}
					cycles += r.Cycles
				}
				b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/sec")
			})
		}
	}
}

// BenchmarkParseBench measures netlist parsing throughput on the largest
// generated benchmark.
func BenchmarkParseBench(b *testing.B) {
	text := netlist.BenchString(bench89.MustGet("s15850"))
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := netlist.ParseBenchString("s15850", text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiagnose measures the post-hoc sample audit.
func BenchmarkDiagnose(b *testing.B) {
	c := bench89.MustGet("s298")
	tb := dipe.NewTestbench(c)
	s := tb.NewSession(dipe.NewIIDSource(len(c.Inputs), 0.5, 1))
	for i := 0; i < b.N; i++ {
		if _, err := dipe.Diagnose(s, 2, 320); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStateSampling measures the exact estimator on s27 (the
// feasible corner of Section III's first approach).
func BenchmarkStateSampling(b *testing.B) {
	c := bench89.S27()
	p := []float64{0.5, 0.5, 0.5, 0.5}
	stg, err := dipe.ExtractSTG(c, p)
	if err != nil {
		b.Fatal(err)
	}
	pi, err := stg.Stationary(1e-10, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	tb := dipe.NewTestbench(c)
	for i := 0; i < b.N; i++ {
		if _, err := dipe.EstimateByStateSampling(tb.NewSession(dipe.NewIIDSource(4, 0.5, int64(i+1))),
			stg, pi, p, dipe.DefaultSpec(), dipe.OrderStatisticsCriterion, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompiledObsOverhead measures the compiled s1494 zero-delay
// duty cycle (3 hidden + 1 sampled step, 64 lanes, a session built
// without a delay table) with the observability sink
// disabled — a nil atomic pointer, one branch per register-file pass —
// and enabled with live registry counters, switching the sink on one
// session between the blocks pairedOverhead alternates. The bench CI
// job gates the reported enabled/disabled ratio at 1% so
// instrumentation can never creep onto the simulation critical path.
func BenchmarkCompiledObsOverhead(b *testing.B) {
	c := bench89.MustGet("s1494")
	tb := dipe.NewTestbench(c)
	reg := obs.NewRegistry()
	defer sim.RegisterCompiledMetrics(nil)
	s := sim.NewCompiledSession(c, nil, laneSources(c))
	powers := make([]float64, sim.MaxLanes)
	pairedOverhead(b, func(enabled bool) {
		if enabled {
			sim.RegisterCompiledMetrics(reg)
		} else {
			sim.RegisterCompiledMetrics(nil)
		}
	}, func() {
		s.StepHiddenN(3)
		s.StepSampled(tb.Weights(), powers)
	})
}

// BenchmarkBreakdownOverhead measures the compiled s1494 zero-delay
// duty cycle (3 hidden + 1 sampled step, 64 lanes, a session built
// without a delay table) with per-node toggle counting
// disabled — a nil accumulator, zero work — and enabled, on two
// identically built sessions, one of them counting, which the blocks
// pairedOverhead alternates step in turn. Counting adds one
// popcount-and-add per node word per sampled step; the CI gate holds
// the reported enabled/disabled ratio at 5% so breakdown runs stay
// within noise of scalar-only estimation.
func BenchmarkBreakdownOverhead(b *testing.B) {
	c := bench89.MustGet("s1494")
	tb := dipe.NewTestbench(c)
	plain := sim.NewCompiledSession(c, nil, laneSources(c))
	counting := sim.NewCompiledSession(c, nil, laneSources(c))
	counting.AccumulateToggles(make([]uint64, c.NumNodes()))
	powers := make([]float64, sim.MaxLanes)
	var s *sim.CompiledSession
	pairedOverhead(b, func(enabled bool) {
		s = plain
		if enabled {
			s = counting
		}
	}, func() {
		s.StepHiddenN(3)
		s.StepSampled(tb.Weights(), powers)
	})
}

// overheadBlock is how many duty cycles one timed block of
// pairedOverhead runs: a few milliseconds on s1494, short against the
// host's speed drift.
const overheadBlock = 50

// pairedOverhead times cycle in pairs of blocks, one block of
// overheadBlock cycles with the measured feature disabled and one with
// it enabled (set switches it between blocks, untimed), alternating
// which runs first. It runs b.N cycles in max(1, b.N/(2·overheadBlock))
// pairs and reports the median of the per-pair enabled/disabled time
// ratios as the "enabled/disabled" metric. Drift in the host's speed
// reaches both blocks of a pair alike, so it cancels in each ratio
// instead of landing in the gate.
func pairedOverhead(b *testing.B, set func(enabled bool), cycle func()) {
	block := func(enabled bool) time.Duration {
		set(enabled)
		start := time.Now()
		for i := 0; i < overheadBlock; i++ {
			cycle()
		}
		return time.Since(start)
	}
	ratios := make([]float64, max(1, b.N/(2*overheadBlock)))
	b.ResetTimer()
	for p := range ratios {
		var off, on time.Duration
		if p%2 == 0 {
			off = block(false)
			on = block(true)
		} else {
			on = block(true)
			off = block(false)
		}
		ratios[p] = on.Seconds() / off.Seconds()
	}
	b.StopTimer()
	slices.Sort(ratios)
	mid := len(ratios) / 2
	median := ratios[mid]
	if len(ratios)%2 == 0 {
		median = (ratios[mid-1] + ratios[mid]) / 2
	}
	b.ReportMetric(median, "enabled/disabled")
}

func benchName(prefix string, n int) string {
	switch {
	case n >= 1000 && n%1000 == 0:
		return prefix + "=" + itoa(n/1000) + "k"
	default:
		return prefix + "=" + itoa(n)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
