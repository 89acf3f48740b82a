// Command dipe-experiments regenerates every table and figure of the
// paper's evaluation section, plus ablations of the method's design
// choices and a general- vs zero-delay mode comparison.
//
//	dipe-experiments -table1                       # Table 1 (all circuits)
//	dipe-experiments -table2 -runs 1000            # Table 2 at paper scale
//	dipe-experiments -fig3                         # Figure 3 (s1494, L=10000)
//	dipe-experiments -ablation stopping            # criterion comparison
//	dipe-experiments -modes                        # general- vs zero-delay power modes
//	dipe-experiments -table1 -circuits s27,s298    # subset
//	dipe-experiments -all -small                   # everything, small circuits
//
// By default reference budgets scale with circuit size; -paper restores
// the 1e6-cycle references of the paper (slow on the largest circuits).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/bench89"
	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dipe-experiments:", err)
		os.Exit(2)
	}
}

// run is the testable body of the command: it parses args, runs the
// selected campaigns, and writes reports to stdout (progress to
// stderr).
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dipe-experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table1   = fs.Bool("table1", false, "regenerate Table 1")
		table2   = fs.Bool("table2", false, "regenerate Table 2")
		fig3     = fs.Bool("fig3", false, "regenerate Figure 3")
		ablation = fs.String("ablation", "", "run one ablation: seqlen | alpha | stopping | warmup | inputs")
		all      = fs.Bool("all", false, "run every table, figure and ablation")
		circuits = fs.String("circuits", "", "comma-separated circuit subset (default: all 24)")
		small    = fs.Bool("small", false, "restrict to circuits with < 700 gates")
		runs     = fs.Int("runs", 100, "runs per circuit for Table 2 / ablations (paper: 1000)")
		parallel = fs.Int("parallel", 0, "concurrent estimation runs in Table 2 (0 = serial)")
		modes    = fs.Bool("modes", false, "run the Table-1-style general-delay vs zero-delay mode comparison")
		paper    = fs.Bool("paper", false, "use the paper's 1e6-cycle references")
		seed     = fs.Int64("seed", 1997, "base seed for the whole campaign")
		fig3Len  = fs.Int("fig3-len", 10000, "Figure 3 sequence length")
		fig3Max  = fs.Int("fig3-max", 30, "Figure 3 maximum trial interval")
		fig3Circ = fs.String("fig3-circuit", "s1494", "Figure 3 circuit")
		csv      = fs.Bool("csv", false, "emit Figure 3 as CSV instead of ASCII")
		quiet    = fs.Bool("q", false, "suppress progress logging")
	)
	cfg := experiments.DefaultConfig()
	fs.IntVar(&cfg.Opts.Replications, "replications", cfg.Opts.Replications, "Table 1: bit-parallel replications (0 = serial estimator)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg.Runs = *runs
	cfg.Parallel = *parallel
	cfg.BaseSeed = *seed
	if !*quiet {
		cfg.Log = stderr
	}
	if *paper {
		cfg.RefCycles = experiments.PaperRefCycles
	}
	switch {
	case *circuits != "":
		cfg.Circuits = strings.Split(*circuits, ",")
	case *small:
		cfg.Circuits = bench89.SmallNames(700)
	}

	if !*table1 && !*table2 && !*fig3 && *ablation == "" && !*all && !*modes {
		fs.Usage()
		return fmt.Errorf("no campaign selected")
	}

	if *modes || *all {
		mcfg := cfg
		if *circuits == "" && !*small {
			mcfg.Circuits = []string{"s298", "s832", "s1494"}
		}
		rows, err := experiments.ModeComparison(mcfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.RenderModes(rows))
	}

	if *table1 || *all {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.RenderTable1(rows))
	}
	if *table2 || *all {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, experiments.RenderTable2(rows))
	}
	if *fig3 || *all {
		pts, err := experiments.Figure3(cfg, *fig3Circ, *fig3Len, *fig3Max)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprint(stdout, experiments.Figure3CSV(pts))
		} else {
			c := stats.NormalQuantile(1 - cfg.Opts.Alpha/2)
			fmt.Fprintln(stdout, experiments.RenderFigure3(pts, c))
		}
	}

	runAblation := func(which string) error {
		// Ablations run on one representative circuit each; s298 is small
		// and strongly correlated, s27 is the fast smoke case.
		switch which {
		case "seqlen":
			rows, err := experiments.AblationSeqLen(cfg, "s298", []int{80, 160, 320, 640, 1280})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderSeqLen(rows))
		case "alpha":
			rows, err := experiments.AblationAlpha(cfg, "s298", []float64{0.05, 0.10, 0.20, 0.30, 0.50})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderAlpha(rows))
		case "stopping":
			rows, err := experiments.AblationStopping(cfg, "s298")
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderStopping(rows))
		case "warmup":
			rows, err := experiments.AblationWarmup(cfg, "s298", []int{10, 50, 100})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderWarmup(rows))
		case "inputs":
			rows, err := experiments.AblationInputs(cfg, "s298", []float64{0, 0.5, 0.9})
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderInputs(rows))
		case "delay":
			dcfg := cfg
			if len(dcfg.Circuits) > 8 {
				dcfg.Circuits = dcfg.Circuits[:8]
			}
			rows, err := experiments.AblationDelayModels(dcfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderDelayModels(rows))
		case "calibration":
			rows := experiments.CalibrationRunsTest(cfg, cfg.Opts.Test, cfg.Opts.SeqLen, 2000,
				[]float64{0.05, 0.10, 0.20, 0.30, 0.50})
			fmt.Fprintln(stdout, experiments.RenderCalibration(rows))
		case "proba":
			pcfg := cfg
			if len(pcfg.Circuits) > 12 {
				pcfg.Circuits = pcfg.Circuits[:12]
			}
			rows, err := experiments.ProbabilisticBaseline(pcfg)
			if err != nil {
				return err
			}
			fmt.Fprintln(stdout, experiments.RenderProba(rows))
		default:
			return fmt.Errorf("unknown ablation %q (seqlen|alpha|stopping|warmup|inputs|delay|calibration|proba)", which)
		}
		return nil
	}
	if *ablation != "" {
		if err := runAblation(*ablation); err != nil {
			return err
		}
	}
	if *all {
		for _, a := range []string{"seqlen", "alpha", "stopping", "warmup", "inputs", "delay", "calibration", "proba"} {
			if err := runAblation(a); err != nil {
				return err
			}
		}
	}
	return nil
}
