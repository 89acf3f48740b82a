package experiments

import (
	"strings"
	"testing"
)

// TestModeComparison: the two-mode table reports a positive glitch gap
// (general-delay power is above zero-delay power) and sane run
// accounting on a glitch-prone circuit.
func TestModeComparison(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Circuits = []string{"s298"}
	cfg.Opts.Replications = 32
	rows, err := ModeComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.PGeneral <= 0 || r.PZero <= 0 || r.PZero >= r.PGeneral {
		t.Fatalf("implausible mode powers: %+v", r)
	}
	if r.GlitchPct <= 0 || r.GlitchPct >= 100 {
		t.Fatalf("glitch share %g%%", r.GlitchPct)
	}
	if r.NGeneral <= 0 || r.NZero <= 0 || r.CycGeneral == 0 || r.CycZero == 0 {
		t.Fatalf("missing run accounting: %+v", r)
	}
	if !strings.Contains(RenderModes(rows), "s298") {
		t.Fatal("ASCII render missing circuit name")
	}
}

func TestModeComparisonError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Circuits = []string{"sNOPE"}
	if _, err := ModeComparison(cfg); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}
