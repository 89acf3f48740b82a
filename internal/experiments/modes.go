package experiments

import (
	"fmt"
	"time"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/power"
)

// ModeRow is one row of the Table-1-style two-mode comparison: the same
// circuit estimated under the general-delay mode (event-driven,
// glitches included) and the zero-delay mode (functional transitions
// only, packed sampled phase). The power gap is the glitch power the
// delay model exposes; the cost columns show the zero-delay sampled
// phase running at packed throughput.
type ModeRow struct {
	Name       string
	Gates      int
	PGeneral   float64 // watts, general-delay estimate
	PZero      float64 // watts, zero-delay estimate
	GlitchPct  float64 // 100 * (PGeneral - PZero) / PGeneral
	NGeneral   int     // sample size, general-delay run
	NZero      int     // sample size, zero-delay run
	CycGeneral uint64  // total simulated cycles, general-delay run
	CycZero    uint64  // total simulated cycles, zero-delay run
	SecGeneral float64 // wall seconds, general-delay run
	SecZero    float64 // wall seconds, zero-delay run
}

// ModeComparison estimates every configured circuit under both power
// modes with the bit-parallel estimator (cfg.Opts.Replications lanes; 64
// if the config leaves it at 0, matching EstimateParallel's default).
// Both runs share a seed, so the comparison isolates the delay-model
// axis.
func ModeComparison(cfg Config) ([]ModeRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rows := make([]ModeRow, 0, len(cfg.Circuits))
	for ci, name := range cfg.Circuits {
		circ, err := bench89.Get(name)
		if err != nil {
			return nil, err
		}
		tb := core.DefaultTestbench(circ)
		width := len(circ.Inputs)
		seed := cfg.BaseSeed + 13_131_313 + int64(ci)*1_000_003

		run := func(mode power.PowerMode) (core.Result, float64, error) {
			o := cfg.Opts
			o.Mode = mode
			start := time.Now()
			res, err := core.EstimateParallel(tb, cfg.factory(width), seed, o)
			return res, time.Since(start).Seconds(), err
		}
		gen, genSec, err := run(power.ModeGeneralDelay)
		if err != nil {
			return nil, fmt.Errorf("modes %s general-delay: %w", name, err)
		}
		zero, zeroSec, err := run(power.ModeZeroDelay)
		if err != nil {
			return nil, fmt.Errorf("modes %s zero-delay: %w", name, err)
		}
		row := ModeRow{
			Name:       name,
			Gates:      circ.NumGates(),
			PGeneral:   gen.Power,
			PZero:      zero.Power,
			NGeneral:   gen.SampleSize,
			NZero:      zero.SampleSize,
			CycGeneral: gen.TotalCycles(),
			CycZero:    zero.TotalCycles(),
			SecGeneral: genSec,
			SecZero:    zeroSec,
		}
		if gen.Power > 0 {
			row.GlitchPct = 100 * (gen.Power - zero.Power) / gen.Power
		}
		cfg.logf("modes: %s general=%.4g zero=%.4g glitch=%.1f%% (%.2fs vs %.2fs)\n",
			name, row.PGeneral, row.PZero, row.GlitchPct, row.SecGeneral, row.SecZero)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderModes renders mode-comparison rows as an ASCII table.
func RenderModes(rows []ModeRow) string {
	s := fmt.Sprintf("%-8s %7s %12s %12s %8s %8s %8s %9s %9s\n",
		"circuit", "gates", "P(general)", "P(zero)", "glitch%", "n(gen)", "n(zero)", "s(gen)", "s(zero)")
	for _, r := range rows {
		s += fmt.Sprintf("%-8s %7d %12.4g %12.4g %7.1f%% %8d %8d %8.2fs %8.2fs\n",
			r.Name, r.Gates, r.PGeneral, r.PZero, r.GlitchPct, r.NGeneral, r.NZero, r.SecGeneral, r.SecZero)
	}
	return s
}
