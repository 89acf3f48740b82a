package experiments

import (
	"fmt"
	"math"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/proba"
)

// ProbaRow is one row of the probabilistic-baseline experiment (B1): the
// classical signal-probability approach of the paper's refs [2][3][4]
// versus DIPE, both judged against the general-delay simulation
// reference. The paper's motivating claim — neglecting correlations
// yields poor accuracy — becomes a measured column.
type ProbaRow struct {
	Name       string
	SIM        float64 // watts, reference
	PProba     float64 // watts, probabilistic estimate
	ProbaErr   float64 // percent error vs SIM
	PDipe      float64 // watts, DIPE estimate
	DipeErr    float64 // percent error vs SIM
	Iterations int     // latch fixpoint iterations
}

// ProbabilisticBaseline runs the comparison on every configured circuit.
func ProbabilisticBaseline(cfg Config) ([]ProbaRow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rows := make([]ProbaRow, 0, len(cfg.Circuits))
	for ci, name := range cfg.Circuits {
		circ, err := bench89.Get(name)
		if err != nil {
			return nil, err
		}
		tb := core.DefaultTestbench(circ)
		width := len(circ.Inputs)
		seed := cfg.BaseSeed + 3_333_333 + int64(ci)*1_000_003

		ref := cfg.reference(tb, width, seed)

		inputP := make([]float64, width)
		for i := range inputP {
			inputP[i] = cfg.InputProb
		}
		pr, err := proba.Analyze(circ, inputP, proba.DefaultOptions())
		if err != nil {
			return nil, fmt.Errorf("proba %s: %w", name, err)
		}
		pProba := pr.Power(tb.Model)

		dipeRes, err := core.Estimate(tb.NewSession(cfg.factory(width)(seed+1)), cfg.Opts)
		if err != nil {
			return nil, fmt.Errorf("dipe %s: %w", name, err)
		}

		row := ProbaRow{
			Name:       name,
			SIM:        ref.Power,
			PProba:     pProba,
			PDipe:      dipeRes.Power,
			Iterations: pr.Iterations,
		}
		if ref.Power > 0 {
			row.ProbaErr = 100 * math.Abs(pProba-ref.Power) / ref.Power
			row.DipeErr = 100 * math.Abs(dipeRes.Power-ref.Power) / ref.Power
		}
		cfg.logf("proba baseline: %s SIM=%.4g proba=%.4g (%.1f%%) dipe=%.4g (%.1f%%)\n",
			name, row.SIM, row.PProba, row.ProbaErr, row.PDipe, row.DipeErr)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderProba renders the probabilistic-baseline table.
func RenderProba(rows []ProbaRow) string {
	header := []string{"Circuit", "SIM(mW)", "Proba(mW)", "ProbaErr(%)", "DIPE(mW)", "DIPEErr(%)", "FixpointIters"}
	body := make([][]string, len(rows))
	for i, r := range rows {
		body[i] = []string{
			r.Name,
			fmt.Sprintf("%.4f", r.SIM*1e3),
			fmt.Sprintf("%.4f", r.PProba*1e3),
			fmt.Sprintf("%.1f", r.ProbaErr),
			fmt.Sprintf("%.4f", r.PDipe*1e3),
			fmt.Sprintf("%.1f", r.DipeErr),
			fmt.Sprintf("%d", r.Iterations),
		}
	}
	return renderRows("Baseline B1: probabilistic (refs [2-4] style) vs DIPE", header, body)
}
