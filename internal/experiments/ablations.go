package experiments

import (
	"fmt"
	"math"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/refsim"
	"repro/internal/stopping"
	"repro/internal/vectors"
)

// SeqLenRow is one row of ablation A1: how the selected independence
// interval behaves as the randomness-test sequence length varies. The
// paper fixes L = 320 arguing longer sequences buy only marginal
// stability; this ablation quantifies that.
type SeqLenRow struct {
	SeqLen    int
	Runs      int
	IIMin     int
	IIMax     int
	IIAvg     float64
	IIStd     float64
	SelCycAvg float64 // cycles spent inside interval selection
}

// AblationSeqLen runs interval selection cfg.Runs times per sequence
// length on one circuit.
func AblationSeqLen(cfg Config, circuit string, lengths []int) ([]SeqLenRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	circ, err := bench89.Get(circuit)
	if err != nil {
		return nil, err
	}
	tb := core.DefaultTestbench(circ)
	width := len(circ.Inputs)
	rows := make([]SeqLenRow, 0, len(lengths))
	for li, L := range lengths {
		opts := cfg.Opts
		opts.SeqLen = L
		row := SeqLenRow{SeqLen: L, Runs: cfg.Runs, IIMin: 1 << 30}
		var sum, sumSq, sumCyc float64
		for r := 0; r < cfg.Runs; r++ {
			s := tb.NewSession(cfg.factory(width)(cfg.BaseSeed + int64(li)*100_000 + int64(r)))
			s.StepHiddenN(opts.WarmupCycles)
			s.ResetCounters()
			sel, err := core.SelectInterval(s, opts)
			if err != nil {
				return nil, err
			}
			ii := float64(sel.Interval)
			sum += ii
			sumSq += ii * ii
			sumCyc += float64(s.HiddenCycles + s.SampledCycles)
			if sel.Interval < row.IIMin {
				row.IIMin = sel.Interval
			}
			if sel.Interval > row.IIMax {
				row.IIMax = sel.Interval
			}
		}
		n := float64(cfg.Runs)
		row.IIAvg = sum / n
		v := sumSq/n - row.IIAvg*row.IIAvg
		if v < 0 {
			v = 0
		}
		row.IIStd = sqrt(v)
		row.SelCycAvg = sumCyc / n
		cfg.logf("ablation seqlen: L=%d II %d..%d avg %.2f±%.2f\n", L, row.IIMin, row.IIMax, row.IIAvg, row.IIStd)
		rows = append(rows, row)
	}
	return rows, nil
}

// AlphaRow is one row of ablation A2: significance level vs. interval
// and accuracy. Larger alpha rejects randomness more eagerly, inflating
// the interval (more conservative, more simulation); smaller alpha
// accepts residual correlation.
type AlphaRow struct {
	Alpha  float64
	Runs   int
	IIAvg  float64
	SAvg   float64
	DAvg   float64 // percent, Eq. 8 against the reference
	ErrPct float64
}

// AblationAlpha sweeps the randomness-test significance level on one
// circuit.
func AblationAlpha(cfg Config, circuit string, alphas []float64) ([]AlphaRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	circ, err := bench89.Get(circuit)
	if err != nil {
		return nil, err
	}
	tb := core.DefaultTestbench(circ)
	width := len(circ.Inputs)
	ref := cfg.reference(tb, width, cfg.BaseSeed+555)

	rows := make([]AlphaRow, 0, len(alphas))
	for ai, alpha := range alphas {
		opts := cfg.Opts
		opts.Alpha = alpha
		row := AlphaRow{Alpha: alpha, Runs: cfg.Runs}
		var sumII, sumS, sumD float64
		viol := 0
		for r := 0; r < cfg.Runs; r++ {
			res, err := core.Estimate(tb.NewSession(cfg.factory(width)(cfg.BaseSeed+int64(ai)*200_000+int64(r))), opts)
			if err != nil {
				return nil, err
			}
			sumII += float64(res.Interval)
			sumS += float64(res.SampleSize)
			dev := 100 * math.Abs(res.Power-ref.Power) / ref.Power
			sumD += dev
			if dev > 100*opts.Spec.RelErr {
				viol++
			}
		}
		n := float64(cfg.Runs)
		row.IIAvg, row.SAvg, row.DAvg = sumII/n, sumS/n, sumD/n
		row.ErrPct = 100 * float64(viol) / n
		cfg.logf("ablation alpha: a=%.2f IIavg=%.2f Savg=%.0f Davg=%.2f%%\n", alpha, row.IIAvg, row.SAvg, row.DAvg)
		rows = append(rows, row)
	}
	return rows, nil
}

// StoppingRow is one row of ablation A3: criterion comparison.
type StoppingRow struct {
	Criterion string
	Runs      int
	SAvg      float64
	DAvg      float64 // percent
	ErrPct    float64 // spec violations, percent of runs
	CycAvg    float64
}

// AblationStopping compares the three stopping criteria on one circuit.
func AblationStopping(cfg Config, circuit string) ([]StoppingRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	circ, err := bench89.Get(circuit)
	if err != nil {
		return nil, err
	}
	tb := core.DefaultTestbench(circ)
	width := len(circ.Inputs)
	ref := cfg.reference(tb, width, cfg.BaseSeed+777)

	factories := []stopping.Factory{
		stopping.NormalFactory, stopping.KSFactory, stopping.OrderStatisticsFactory,
	}
	rows := make([]StoppingRow, 0, len(factories))
	for fi, f := range factories {
		opts := cfg.Opts
		opts.NewCriterion = f
		row := StoppingRow{Runs: cfg.Runs}
		var sumS, sumD, sumCyc float64
		viol := 0
		for r := 0; r < cfg.Runs; r++ {
			res, err := core.Estimate(tb.NewSession(cfg.factory(width)(cfg.BaseSeed+int64(fi)*300_000+int64(r))), opts)
			if err != nil {
				return nil, err
			}
			row.Criterion = res.Criterion
			sumS += float64(res.SampleSize)
			sumCyc += float64(res.TotalCycles())
			dev := 100 * math.Abs(res.Power-ref.Power) / ref.Power
			sumD += dev
			if dev > 100*opts.Spec.RelErr {
				viol++
			}
		}
		n := float64(cfg.Runs)
		row.SAvg, row.DAvg, row.CycAvg = sumS/n, sumD/n, sumCyc/n
		row.ErrPct = 100 * float64(viol) / n
		cfg.logf("ablation stopping: %s Savg=%.0f Davg=%.2f%% Err=%.1f%%\n", row.Criterion, row.SAvg, row.DAvg, row.ErrPct)
		rows = append(rows, row)
	}
	return rows, nil
}

// WarmupRow is one row of ablation A4: DIPE's dynamically selected
// interval versus pessimistic fixed warm-up periods (the strategy of the
// paper's ref [9]). The cost metric is total simulated cycles to reach
// the same accuracy spec.
type WarmupRow struct {
	Mode   string // "dynamic" or "fixed-K"
	Runs   int
	IIAvg  float64 // dynamic: selected; fixed: the constant K
	SAvg   float64
	CycAvg float64
	DAvg   float64 // percent
	ErrPct float64
}

// AblationWarmup compares dynamic interval selection against fixed
// warm-up periods on one circuit.
func AblationWarmup(cfg Config, circuit string, fixed []int) ([]WarmupRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	circ, err := bench89.Get(circuit)
	if err != nil {
		return nil, err
	}
	tb := core.DefaultTestbench(circ)
	width := len(circ.Inputs)
	ref := cfg.reference(tb, width, cfg.BaseSeed+888)

	runMode := func(mode string, interval int, seedOff int64) (WarmupRow, error) {
		row := WarmupRow{Mode: mode, Runs: cfg.Runs}
		var sumII, sumS, sumCyc, sumD float64
		viol := 0
		for r := 0; r < cfg.Runs; r++ {
			seed := cfg.BaseSeed + seedOff + int64(r)
			var res core.Result
			var err error
			sess := tb.NewSession(cfg.factory(width)(seed))
			switch mode {
			case "dynamic":
				res, err = core.Estimate(sess, cfg.Opts)
			case "batch-means":
				res, err = core.EstimateBatchMeans(sess, cfg.Opts, core.DefaultBatchCycles)
			default:
				res, err = core.EstimateWithInterval(sess, cfg.Opts, interval)
			}
			if err != nil {
				return row, err
			}
			sumII += float64(res.Interval)
			sumS += float64(res.SampleSize)
			sumCyc += float64(res.TotalCycles())
			dev := 100 * math.Abs(res.Power-ref.Power) / ref.Power
			sumD += dev
			if dev > 100*cfg.Opts.Spec.RelErr {
				viol++
			}
		}
		n := float64(cfg.Runs)
		row.IIAvg, row.SAvg, row.CycAvg, row.DAvg = sumII/n, sumS/n, sumCyc/n, sumD/n
		row.ErrPct = 100 * float64(viol) / n
		cfg.logf("ablation warmup: %s IIavg=%.2f cycles=%.0f Davg=%.2f%%\n", row.Mode, row.IIAvg, row.CycAvg, row.DAvg)
		return row, nil
	}

	rows := make([]WarmupRow, 0, len(fixed)+2)
	row, err := runMode("dynamic", 0, 400_000)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	for i, k := range fixed {
		row, err := runMode(fmt.Sprintf("fixed-%d", k), k, 500_000+int64(i)*100_000)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	// The consecutive-cycle batch-means baseline ([1]-style): every
	// cycle pays general-delay cost.
	row, err = runMode("batch-means", 0, 900_000)
	if err != nil {
		return nil, err
	}
	rows = append(rows, row)
	return rows, nil
}

// InputsRow is one row of ablation A5: estimator behaviour under
// temporally correlated input streams (the paper's "correlated input
// streams can also be handled without any extra work" claim). Stronger
// input correlation slows the FSM's mixing, so the selected interval
// should grow while accuracy holds.
type InputsRow struct {
	Rho    float64
	Runs   int
	IIAvg  float64
	SAvg   float64
	DAvg   float64
	ErrPct float64
}

// AblationInputs sweeps the lag-1 input autocorrelation on one circuit.
func AblationInputs(cfg Config, circuit string, rhos []float64) ([]InputsRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	circ, err := bench89.Get(circuit)
	if err != nil {
		return nil, err
	}
	tb := core.DefaultTestbench(circ)
	width := len(circ.Inputs)

	rows := make([]InputsRow, 0, len(rhos))
	for ri, rho := range rhos {
		fac := vectors.LagCorrelatedFactory(width, cfg.InputProb, rho)
		// Per-rho reference: the input process changes the true average
		// power, so each rho needs its own.
		cycles := cfg.RefCycles(circ.NumGates())
		ref := refsimRun(tb, fac(cfg.BaseSeed+999+int64(ri)), cfg.RefWarmup, cycles)

		row := InputsRow{Rho: rho, Runs: cfg.Runs}
		var sumII, sumS, sumD float64
		viol := 0
		for r := 0; r < cfg.Runs; r++ {
			res, err := core.Estimate(tb.NewSession(fac(cfg.BaseSeed+int64(ri)*600_000+int64(r))), cfg.Opts)
			if err != nil {
				return nil, err
			}
			sumII += float64(res.Interval)
			sumS += float64(res.SampleSize)
			dev := 100 * math.Abs(res.Power-ref) / ref
			sumD += dev
			if dev > 100*cfg.Opts.Spec.RelErr {
				viol++
			}
		}
		n := float64(cfg.Runs)
		row.IIAvg, row.SAvg, row.DAvg = sumII/n, sumS/n, sumD/n
		row.ErrPct = 100 * float64(viol) / n
		cfg.logf("ablation inputs: rho=%.2f IIavg=%.2f Savg=%.0f Davg=%.2f%%\n", rho, row.IIAvg, row.SAvg, row.DAvg)
		rows = append(rows, row)
	}
	return rows, nil
}

func sqrt(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Sqrt(x)
}

// refsimRun returns just the reference power for a prebuilt source.
func refsimRun(tb *core.Testbench, src vectors.Source, warmup, cycles int) float64 {
	return refsim.Run(tb.NewSession(src), warmup, cycles).Power
}
