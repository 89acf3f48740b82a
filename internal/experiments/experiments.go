package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/refsim"
	"repro/internal/vectors"
)

// Config controls an experiment campaign.
type Config struct {
	// Circuits is the list of benchmark names (default: all 24 of the
	// paper's tables).
	Circuits []string
	// RefCycles returns the reference-simulation cycle budget for a
	// circuit of the given gate count. The paper uses 1e6 cycles for
	// every circuit; the default scales down with size to keep the whole
	// suite interactive (the reference's standard error is reported so
	// the comparison stays honest).
	RefCycles func(gates int) int
	// RefWarmup is the hidden-cycle warm-up before the reference run.
	RefWarmup int
	// Runs is the number of independent estimation runs per circuit for
	// Table 2 and the ablations (paper: 1000).
	Runs int
	// Opts are the estimator options (paper defaults). A nonzero
	// Opts.Replications switches Table1 to the lane-parallel estimator
	// (core.EstimateParallel) with that many concurrent replication
	// sequences; 0 keeps the serial single-sequence estimator.
	Opts core.Options
	// InputProb is the primary-input signal probability (paper: 0.5).
	InputProb float64
	// BaseSeed makes the campaign reproducible.
	BaseSeed int64
	// Parallel bounds the number of concurrent estimation runs inside
	// Table2 (each run is an independent session). 0 or 1 means serial.
	// Results are independent of the parallelism level: runs are seeded
	// individually and aggregated in run order.
	Parallel int
	// Log, when non-nil, receives progress lines.
	Log io.Writer
}

// DefaultConfig returns the paper's configuration with compute-friendly
// reference budgets and run counts.
func DefaultConfig() Config {
	return Config{
		Circuits:  bench89.Names(),
		RefCycles: DefaultRefCycles,
		RefWarmup: 256,
		Runs:      100,
		Opts:      core.DefaultOptions(),
		InputProb: 0.5,
		BaseSeed:  1997, // the paper's year; any value works
	}
}

// DefaultRefCycles scales the reference budget with circuit size:
// small circuits get paper-like precision, the largest stay tractable.
func DefaultRefCycles(gates int) int {
	switch {
	case gates < 300:
		return 200_000
	case gates < 1_000:
		return 100_000
	case gates < 3_000:
		return 50_000
	default:
		return 20_000
	}
}

// PaperRefCycles reproduces the paper's fixed 1e6-cycle reference.
func PaperRefCycles(int) int { return 1_000_000 }

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format, args...)
	}
}

func (c Config) validate() error {
	if len(c.Circuits) == 0 {
		return fmt.Errorf("experiments: no circuits configured")
	}
	if c.RefCycles == nil {
		return fmt.Errorf("experiments: RefCycles is nil")
	}
	if c.InputProb <= 0 || c.InputProb >= 1 {
		return fmt.Errorf("experiments: input probability %g outside (0,1)", c.InputProb)
	}
	return c.Opts.Validate()
}

// factory returns the input source factory for a circuit width.
func (c Config) factory(width int) vectors.Factory {
	return vectors.IIDFactory(width, c.InputProb)
}

// reference computes the long-run reference for one circuit.
func (c Config) reference(tb *core.Testbench, width int, seed int64) refsim.Result {
	cycles := c.RefCycles(tb.Circuit.NumGates())
	return refsim.Run(tb.NewSession(c.factory(width)(seed)), c.RefWarmup, cycles)
}

// Table1Row is one row of the paper's Table 1.
type Table1Row struct {
	Name       string
	SIM        float64 // reference average power, watts
	RefRelSE   float64 // reference's own relative standard error
	RefCycles  int
	II         int     // independence interval of the estimation run
	Estimate   float64 // watts
	SampleSize int
	ErrPct     float64 // |Estimate-SIM|/SIM * 100
	Cycles     uint64  // total simulated cycles of the estimation run
	CPUSec     float64 // wall-clock seconds of the estimation run
}

// Table1 regenerates Table 1: one reference and one estimation run per
// circuit.
func Table1(cfg Config) ([]Table1Row, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rows := make([]Table1Row, 0, len(cfg.Circuits))
	for ci, name := range cfg.Circuits {
		circ, err := bench89.Get(name)
		if err != nil {
			return nil, err
		}
		tb := core.DefaultTestbench(circ)
		width := len(circ.Inputs)
		seed := cfg.BaseSeed + int64(ci)*1_000_003

		cfg.logf("table1: %s reference (%d cycles)...\n", name, cfg.RefCycles(circ.NumGates()))
		ref := cfg.reference(tb, width, seed)

		start := time.Now()
		var res core.Result
		if cfg.Opts.Replications > 0 {
			res, err = core.EstimateParallel(tb, cfg.factory(width), seed+1, cfg.Opts)
		} else {
			res, err = core.Estimate(tb.NewSession(cfg.factory(width)(seed+1)), cfg.Opts)
		}
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", name, err)
		}
		row := Table1Row{
			Name:       name,
			SIM:        ref.Power,
			RefRelSE:   ref.RelStdErr(),
			RefCycles:  ref.Cycles,
			II:         res.Interval,
			Estimate:   res.Power,
			SampleSize: res.SampleSize,
			Cycles:     res.TotalCycles(),
			CPUSec:     time.Since(start).Seconds(),
		}
		if ref.Power != 0 {
			row.ErrPct = 100 * abs(res.Power-ref.Power) / ref.Power
		}
		cfg.logf("table1: %s done: SIM=%.4g est=%.4g II=%d n=%d err=%.2f%%\n",
			name, row.SIM, row.Estimate, row.II, row.SampleSize, row.ErrPct)
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2Row is one row of the paper's Table 2 (Eq. 8 for Davg).
type Table2Row struct {
	Name   string
	Runs   int
	IIMin  int
	IIMax  int
	IIAvg  float64
	SAvg   float64 // average sample size
	DAvg   float64 // average |deviation| percent (Eq. 8)
	ErrPct float64 // percent of runs violating the accuracy spec
	CycAvg float64 // average simulated cycles per run
}

// Table2 regenerates Table 2: cfg.Runs independent estimation runs per
// circuit, summarized against one long reference per circuit.
func Table2(cfg Config) ([]Table2Row, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Runs < 2 {
		return nil, fmt.Errorf("experiments: Table2 needs Runs >= 2, got %d", cfg.Runs)
	}
	rows := make([]Table2Row, 0, len(cfg.Circuits))
	for ci, name := range cfg.Circuits {
		circ, err := bench89.Get(name)
		if err != nil {
			return nil, err
		}
		tb := core.DefaultTestbench(circ)
		width := len(circ.Inputs)
		seed := cfg.BaseSeed + 7_777_777 + int64(ci)*1_000_003

		cfg.logf("table2: %s reference...\n", name)
		ref := cfg.reference(tb, width, seed)

		results, err := runMany(cfg, tb, width, seed+10)
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", name, err)
		}
		row := Table2Row{Name: name, Runs: cfg.Runs, IIMin: 1 << 30}
		var sumII, sumS, sumD, sumCyc float64
		violations := 0
		for _, res := range results {
			if res.Interval < row.IIMin {
				row.IIMin = res.Interval
			}
			if res.Interval > row.IIMax {
				row.IIMax = res.Interval
			}
			sumII += float64(res.Interval)
			sumS += float64(res.SampleSize)
			sumCyc += float64(res.TotalCycles())
			dev := 100 * abs(res.Power-ref.Power) / ref.Power
			sumD += dev
			if dev > 100*cfg.Opts.Spec.RelErr {
				violations++
			}
		}
		n := float64(cfg.Runs)
		row.IIAvg = sumII / n
		row.SAvg = sumS / n
		row.DAvg = sumD / n
		row.CycAvg = sumCyc / n
		row.ErrPct = 100 * float64(violations) / n
		cfg.logf("table2: %s done: II %d..%d avg %.2f, Savg %.0f, Davg %.2f%%, Err %.1f%%\n",
			name, row.IIMin, row.IIMax, row.IIAvg, row.SAvg, row.DAvg, row.ErrPct)
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure3 regenerates the data behind Fig. 3: the runs-test z statistic
// versus trial interval length for one circuit (paper: s1494, sequence
// length 10000, intervals 0..30).
func Figure3(cfg Config, circuit string, seqLen, maxK int) ([]core.ZPoint, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	circ, err := bench89.Get(circuit)
	if err != nil {
		return nil, err
	}
	tb := core.DefaultTestbench(circ)
	s := tb.NewSession(cfg.factory(len(circ.Inputs))(cfg.BaseSeed + 31_337))
	cfg.logf("figure3: %s, L=%d, k=0..%d\n", circuit, seqLen, maxK)
	return core.ZTrace(s, cfg.Opts, maxK, seqLen)
}

// runMany performs cfg.Runs independent estimation runs (run r seeded
// with baseSeed+r), optionally in parallel, returning results in run
// order so aggregates never depend on scheduling.
func runMany(cfg Config, tb *core.Testbench, width int, baseSeed int64) ([]core.Result, error) {
	results := make([]core.Result, cfg.Runs)
	errs := make([]error, cfg.Runs)
	workers := cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > cfg.Runs {
		workers = cfg.Runs
	}
	if workers == 1 {
		for r := 0; r < cfg.Runs; r++ {
			res, err := core.Estimate(tb.NewSession(cfg.factory(width)(baseSeed+int64(r))), cfg.Opts)
			if err != nil {
				return nil, fmt.Errorf("run %d: %w", r, err)
			}
			results[r] = res
		}
		return results, nil
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range work {
				res, err := core.Estimate(tb.NewSession(cfg.factory(width)(baseSeed+int64(r))), cfg.Opts)
				results[r], errs[r] = res, err
			}
		}()
	}
	for r := 0; r < cfg.Runs; r++ {
		work <- r
	}
	close(work)
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", r, err)
		}
	}
	return results, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
