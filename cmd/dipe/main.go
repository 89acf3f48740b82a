// Command dipe estimates the average power dissipation of a gate-level
// sequential circuit with the DAC'97 DIPE technique: independence
// interval selection by randomness test, two-phase power sampling, and a
// distribution-independent stopping criterion.
//
// Usage:
//
//	dipe -circuit s298                      # built-in benchmark
//	dipe -bench path/to/netlist.bench       # ISCAS89 .bench file
//	dipe -circuit s1494 -ztrace 30          # Fig. 3 style z trace
//	dipe -circuit s298 -ref 200000          # long reference instead
//
// Flags tune the paper's parameters (significance level, sequence
// length, accuracy specification, stopping criterion, input statistics).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"

	"repro"
	"repro/internal/delay"
	"repro/internal/vcd"
)

// dumpVCD runs the circuit for a number of sampled cycles with a
// waveform observer attached.
func dumpVCD(tb *dipe.Testbench, src dipe.Source, path string, cycles int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s := tb.NewSession(src)
	s.StepHiddenN(64) // settle away from reset before recording
	period := delay.Picoseconds(tb.Model.Supply.ClockPeriod * 1e12)
	w := vcd.New(f, tb.Circuit, nil, period)
	if err := w.Header(s.Values()); err != nil {
		return err
	}
	w.Attach(s)
	for i := 0; i < cycles; i++ {
		w.BeginCycle()
		s.StepSampled(nil)
	}
	if err := w.Close(); err != nil {
		return err
	}
	return f.Sync()
}

// reportTopConsumers accumulates per-node transition counts over a
// counting reference run and prints the highest-power nodes.
func reportTopConsumers(w io.Writer, c *dipe.Circuit, tb *dipe.Testbench, src dipe.Source, n int) error {
	const cycles = 20_000
	s := tb.NewSession(src)
	s.StepHiddenN(256)
	counts := make([]uint64, c.NumNodes())
	s.Collect(context.Background(), 0, cycles, nil, nil, counts)
	total := tb.Model.PowerFromCounts(counts, cycles)
	fmt.Fprintf(w, "total average power over %d cycles: %s\n", cycles, dipe.FormatWatts(total))
	fmt.Fprintf(w, "%-4s %-16s %14s %8s %12s\n", "#", "node", "power", "share", "switch/cyc")
	for i, b := range tb.Model.TopConsumers(c, counts, cycles, n) {
		fmt.Fprintf(w, "%-4d %-16s %14s %7.2f%% %12.3f\n",
			i+1, b.Name, dipe.FormatWatts(b.Power), 100*b.Share,
			float64(counts[b.Node])/float64(cycles))
	}
	return nil
}

// errUsage reports a command line the flag set rejected; the flag
// package has already printed the problem and the usage.
var errUsage = errors.New("dipe: bad command line")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil, errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "dipe:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command: it parses args, runs the
// selected mode, and writes reports to stdout (-progress-json records
// and flag diagnostics to stderr). It returns flag.ErrHelp for -h and
// errUsage for a command line the flag set rejects.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dipe", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := dipe.DefaultOptions()
	var (
		circuitName = fs.String("circuit", "", "built-in benchmark name (s27, s208, ..., s15850)")
		benchPath   = fs.String("bench", "", "path to an ISCAS89 .bench netlist")
		blifPath    = fs.String("blif", "", "path to a BLIF netlist")
		criterion   = fs.String("criterion", "order-statistics", "stopping criterion: normal | ks | order-statistics")
		test        = fs.String("test", "runs", "randomness test: runs | updown | vonneumann")
		powerMode   = fs.String("power-mode", "general-delay", "sampled-cycle observation: general-delay (glitches included) | zero-delay (functional toggles, bit-parallel)")
		variance    = fs.String("variance", "none", "variance reduction: none | antithetic | control-variate (implies -replications; fewer sampled cycles to the same confidence interval)")
		inputProb   = fs.Float64("p", 0.5, "primary-input signal probability")
		inputRho    = fs.Float64("rho", 0, "primary-input lag-1 autocorrelation (0 = i.i.d.)")
		seed        = fs.Int64("seed", 1, "random seed")
		fixed       = fs.Int("interval", -1, "fixed independence interval (skip selection; -1 = dynamic)")
		brkTop      = fs.Int("breakdown-top", 20, "rows to print with -breakdown (0 = all)")
		ztrace      = fs.Int("ztrace", -1, "print z statistic for trial intervals 0..N and exit")
		ztraceLen   = fs.Int("ztrace-len", 10000, "sequence length for -ztrace")
		refCycles   = fs.Int("ref", 0, "run an N-cycle consecutive reference instead of DIPE")
		verbose     = fs.Bool("v", false, "print interval-selection trials")
		topN        = fs.Int("top", 0, "report the N highest-power nodes (runs a counting reference)")
		maxBudget   = fs.Int("max", 0, "search for peak single-cycle power with an N-cycle budget")
		vcdPath     = fs.String("vcd", "", "dump sampled-cycle waveforms to a VCD file")
		vcdCycles   = fs.Int("vcd-cycles", 64, "number of cycles to dump with -vcd")
		cpuProfile  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = fs.String("memprofile", "", "write a heap profile to this file on exit")
		progJSON    = fs.Bool("progress-json", false, "stream one JSON convergence record per merge round to stderr (requires -replications)")
	)
	fs.Float64Var(&opts.Alpha, "alpha", opts.Alpha, "randomness-test significance level")
	fs.IntVar(&opts.SeqLen, "seqlen", opts.SeqLen, "randomness-test power sequence length")
	fs.Float64Var(&opts.Spec.RelErr, "err", opts.Spec.RelErr, "maximum relative error")
	fs.Float64Var(&opts.Spec.Confidence, "conf", opts.Spec.Confidence, "confidence level")
	fs.IntVar(&opts.Replications, "replications", opts.Replications, "parallel replications on the compiled engine (64 lanes per word, up to 512 per session; 0 = serial estimator)")
	fs.BoolVar(&opts.Breakdown, "breakdown", opts.Breakdown, "report ranked per-node dynamic+leakage power (implies -replications; the dynamic column sums to the estimate in plain mode)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return errUsage
	}

	// Profiles are finalized on the success and the error path alike.
	if *memProfile != "" {
		defer func() {
			f, merr := os.Create(*memProfile)
			if merr != nil {
				fmt.Fprintln(stderr, "dipe:", merr)
				return
			}
			runtime.GC()
			if merr := pprof.WriteHeapProfile(f); merr != nil {
				fmt.Fprintln(stderr, "dipe:", merr)
			}
			f.Close()
		}()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	var (
		c   *dipe.Circuit
		err error
	)
	sources := 0
	for _, s := range []string{*circuitName, *benchPath, *blifPath} {
		if s != "" {
			sources++
		}
	}
	switch {
	case sources > 1:
		return fmt.Errorf("use exactly one of -circuit, -bench, -blif")
	case *circuitName != "":
		c, err = dipe.Benchmark(*circuitName)
	case *benchPath != "":
		c, err = dipe.LoadBench(*benchPath)
	case *blifPath != "":
		c, err = dipe.LoadBLIF(*blifPath)
	default:
		return fmt.Errorf("need -circuit NAME, -bench FILE or -blif FILE (built-ins: s27 %v)", dipe.BenchmarkNames())
	}
	if err != nil {
		return err
	}
	st := c.ComputeStats()
	fmt.Fprintln(stdout, st.String())

	switch *criterion {
	case "normal":
		opts.NewCriterion = dipe.NormalCriterion
	case "ks":
		opts.NewCriterion = dipe.KSCriterion
	case "order-statistics", "os":
		opts.NewCriterion = dipe.OrderStatisticsCriterion
	default:
		return fmt.Errorf("unknown criterion %q", *criterion)
	}
	switch *test {
	case "runs":
		opts.Test = dipe.OrdinaryRunsTest
	case "updown":
		opts.Test = dipe.UpDownRunsTest
	case "vonneumann":
		opts.Test = dipe.VonNeumannTest
	default:
		return fmt.Errorf("unknown randomness test %q", *test)
	}
	mode, err := dipe.ParsePowerMode(*powerMode)
	if err != nil {
		return err
	}
	opts.Mode = mode
	vrMode, err := dipe.ParseVarianceMode(*variance)
	if err != nil {
		return err
	}
	opts.Variance.Mode = vrMode
	if (vrMode != dipe.VarianceNone || opts.Breakdown) && opts.Replications == 0 {
		// The transforms are defined over the replication space, and
		// attribution needs the parallel estimator (it holds the power
		// model): default to 64 replications, one lane word.
		opts.Replications = 64
	}

	newFactory := func() dipe.SourceFactory {
		if *inputRho > 0 {
			return dipe.NewLagCorrelatedSourceFactory(len(c.Inputs), *inputProb, *inputRho)
		}
		return dipe.NewIIDSourceFactory(len(c.Inputs), *inputProb)
	}
	newSource := func() dipe.Source { return newFactory()(*seed) }
	tb := dipe.NewTestbench(c)
	// Estimation and reference sessions observe under the selected mode;
	// the VCD, top-consumers and peak-power paths stay event-driven (they
	// need timed waveforms / glitch accounting by definition).
	newSession := func() *dipe.Session { return tb.NewSessionMode(newSource(), mode) }

	if *refCycles > 0 {
		ref := dipe.RunReference(newSession(), 256, *refCycles)
		fmt.Fprintf(stdout, "reference: %s over %d cycles (rel. std. err. %.3f%%) in %s\n",
			dipe.FormatWatts(ref.Power), ref.Cycles, 100*ref.RelStdErr(), ref.Elapsed)
		return nil
	}

	if *vcdPath != "" {
		if err := dumpVCD(tb, newSource(), *vcdPath, *vcdCycles); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %d cycles of waveforms to %s\n", *vcdCycles, *vcdPath)
		return nil
	}

	if *topN > 0 {
		return reportTopConsumers(stdout, c, tb, newSource(), *topN)
	}

	if *maxBudget > 0 {
		mOpts := dipe.DefaultMaxPowerOptions()
		mOpts.Budget = *maxBudget
		mOpts.Seed = *seed
		hc, err := dipe.MaxPower(tb, mOpts)
		if err != nil {
			return err
		}
		rs, err := dipe.MaxPowerRandom(tb, mOpts)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "peak power (hill climb)    : %s in %d cycles\n", dipe.FormatWatts(hc.Power), hc.Cycles)
		fmt.Fprintf(stdout, "peak power (random search) : %s in %d cycles\n", dipe.FormatWatts(rs.Power), rs.Cycles)
		return nil
	}

	if *ztrace >= 0 {
		pts, err := dipe.ZTrace(newSession(), opts, *ztrace, *ztraceLen)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "interval  z        |z|      accepted")
		for _, p := range pts {
			fmt.Fprintf(stdout, "%7d  %+7.3f  %7.3f  %v\n", p.Interval, p.Z, p.AbsZ, p.Accepted)
		}
		return nil
	}

	reps := opts.Replications
	var progErr error
	if *progJSON {
		if reps == 0 {
			return fmt.Errorf("-progress-json needs the parallel estimator (set -replications)")
		}
		enc := json.NewEncoder(stderr)
		opts.Progress = func(p dipe.Progress) {
			// The half-width is +Inf until the criterion can bound the
			// estimate; JSON has no infinity, so it reads -1 there, as in
			// the service's progress view.
			if math.IsInf(p.HalfWidth, 0) || math.IsNaN(p.HalfWidth) {
				p.HalfWidth = -1
			}
			if err := enc.Encode(p); err != nil && progErr == nil {
				progErr = err
			}
		}
	}

	var res dipe.Result
	switch {
	case reps > 0 && *fixed >= 0:
		res, err = dipe.EstimateParallelWithInterval(tb, newFactory(), *seed, opts, *fixed)
	case reps > 0:
		res, err = dipe.EstimateParallel(tb, newFactory(), *seed, opts)
	case *fixed >= 0:
		res, err = dipe.EstimateWithInterval(newSession(), opts, *fixed)
	default:
		res, err = dipe.Estimate(newSession(), opts)
	}
	if err == nil {
		err = progErr
	}
	if err != nil {
		return err
	}
	if reps > 0 {
		fmt.Fprintf(stdout, "replications      : %d\n", reps)
	}
	if *verbose {
		// Post-hoc audit: a fresh sequence at the selected interval run
		// through the full randomness battery.
		diag, derr := dipe.Diagnose(newSession(), res.Interval, opts.SeqLen)
		if derr == nil {
			fmt.Fprintf(stdout, "  sample audit at interval %d (CV %.2f):\n", diag.Interval, diag.CV)
			for _, tr := range diag.Tests {
				fmt.Fprintf(stdout, "    %s\n", tr.String())
			}
			fmt.Fprintf(stdout, "    acf[1..3] = %.3f %.3f %.3f\n", diag.ACF[1], diag.ACF[2], diag.ACF[3])
		}
	}
	if *verbose {
		for _, tr := range res.Trials {
			status := "reject"
			if tr.Accepted {
				status = "accept"
			}
			fmt.Fprintf(stdout, "  trial k=%d: z=%+.3f p=%.4f -> %s\n", tr.Interval, tr.Z, tr.PValue, status)
		}
	}
	fmt.Fprintf(stdout, "average power     : %s\n", dipe.FormatWatts(res.Power))
	fmt.Fprintf(stdout, "independence intvl: %d cycles", res.Interval)
	if res.IntervalCapped {
		fmt.Fprintf(stdout, " (capped)")
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "sample size       : %d\n", res.SampleSize)
	fmt.Fprintf(stdout, "criterion         : %s (half-width %.2f%%)\n", res.Criterion, 100*res.RelHalfWidth())
	fmt.Fprintf(stdout, "power mode        : %s (engine %s, delay model %s)\n", mode, res.Engine, res.DelayModel)
	if res.Variance != "" {
		fmt.Fprintf(stdout, "variance reduction: %s", res.Variance)
		if res.CVBeta != 0 {
			fmt.Fprintf(stdout, " (beta %.4f)", res.CVBeta)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "simulated cycles  : %d hidden + %d sampled\n", res.HiddenCycles, res.SampledCycles)
	fmt.Fprintf(stdout, "wall time         : %s\n", res.Elapsed)
	if !res.Converged {
		fmt.Fprintln(stdout, "WARNING: sample cap reached before convergence")
	}
	if res.Breakdown != nil {
		printBreakdown(stdout, res.Breakdown, *brkTop)
	}
	return nil
}

// printBreakdown renders the ranked per-node attribution. The dynamic
// column sums (over every node, including the unranked inputs) to the
// scalar estimate in plain estimation mode.
func printBreakdown(w io.Writer, rep *dipe.BreakdownReport, top int) {
	fmt.Fprintf(w, "power breakdown   : dynamic %s + leakage %s over %d observations\n",
		dipe.FormatWatts(rep.Dynamic), dipe.FormatWatts(rep.Leakage), rep.Observations)
	rows := rep.TopRows(top)
	fmt.Fprintf(w, "%-4s %-16s %-6s %12s %14s %14s %8s\n",
		"#", "node", "class", "toggles", "dynamic", "leakage", "share")
	for i, r := range rows {
		fmt.Fprintf(w, "%-4d %-16s %-6s %12d %14s %14s %7.2f%%\n",
			i+1, r.Name, r.Class, r.Toggles,
			dipe.FormatWatts(r.Dynamic), dipe.FormatWatts(r.Leakage), 100*r.Share)
	}
	if n := len(rep.Rows) - len(rows); n > 0 {
		fmt.Fprintf(w, "     ... %d more nodes\n", n)
	}
	if len(rep.Modules) > 0 {
		fmt.Fprintf(w, "%-21s %-6s %12s %14s %14s %8s\n",
			"module", "nodes", "toggles", "dynamic", "leakage", "share")
		for _, m := range rep.Modules {
			fmt.Fprintf(w, "%-21s %-6d %12d %14s %14s %7.2f%%\n",
				m.Module, m.Nodes, m.Toggles,
				dipe.FormatWatts(m.Dynamic), dipe.FormatWatts(m.Leakage), 100*m.Share)
		}
	}
}
