package power

import (
	"math"
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
)

func TestClassOf(t *testing.T) {
	cases := []struct {
		kind logic.Kind
		want NodeClass
	}{
		{logic.Input, ClassInput},
		{logic.DFF, ClassLatch},
		{logic.Const0, ClassConst},
		{logic.Const1, ClassConst},
		{logic.And, ClassGate},
		{logic.Not, ClassGate},
		{logic.Or, ClassGate},
	}
	for _, tc := range cases {
		if got := ClassOf(tc.kind); got != tc.want {
			t.Errorf("ClassOf(%v) = %q, want %q", tc.kind, got, tc.want)
		}
	}
}

func TestModuleOf(t *testing.T) {
	cases := []struct{ name, want string }{
		{"G17", "(top)"},             // flat ISCAS89 name
		{"alu/add/carry", "alu/add"}, // last separator wins
		{"alu.x", "alu"},
		{"/rooted", "(top)"}, // separator at index 0 is not a prefix
		{"", "(top)"},
	}
	for _, tc := range cases {
		if got := ModuleOf(tc.name); got != tc.want {
			t.Errorf("ModuleOf(%q) = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// hierCircuit has two modules plus a primary input, so moduleRows has
// something to aggregate and the input-exclusion rule is visible.
func hierCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("hier")
	a, _ := c.AddNode("A", logic.Input)
	x, _ := c.AddNode("alu/x", logic.Not, a)
	y, _ := c.AddNode("alu/y", logic.And, x, a)
	q, _ := c.AddNode("ctl/q", logic.DFF, y)
	_ = c.MarkOutput(q)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBreakdownHandComputed(t *testing.T) {
	c := hierCircuit(t)
	cm := CapModel{Base: 100e-15, PerFanout: 0}
	lm := LeakModel{GateBase: 10e-12, PerFanin: 1e-12}
	m := NewModelLeak(c, cm, lm, Supply{VDD: 2, ClockPeriod: 10e-9})
	// w_i = C * VDD^2 / (2T) = 100fF * 4 / 20ns = 20 uW per transition.
	w := 100e-15 * 4 / (2 * 10e-9)

	counts := make([]uint64, c.NumNodes())
	counts[c.Lookup("A")] = 1000 // input: counted toward nothing (weight 0)
	counts[c.Lookup("alu/x")] = 10
	counts[c.Lookup("alu/y")] = 30
	counts[c.Lookup("ctl/q")] = 20

	rep := m.Breakdown(c, counts, 100)
	if rep.Observations != 100 {
		t.Fatalf("observations = %d, want 100", rep.Observations)
	}
	wantDyn := w * float64(10+30+20) / 100
	if math.Abs(rep.Dynamic-wantDyn) > 1e-9*wantDyn {
		t.Fatalf("dynamic = %g, want %g", rep.Dynamic, wantDyn)
	}
	// Leakage: x has 1 fanin, y has 2, q has 1 → 3*base + 4*perFanin.
	wantLeak := 3*10e-12 + 4*1e-12
	if math.Abs(rep.Leakage-wantLeak) > 1e-20 {
		t.Fatalf("leakage = %g, want %g", rep.Leakage, wantLeak)
	}
	if got := m.TotalLeakage(); got != rep.Leakage {
		t.Fatalf("TotalLeakage = %g, report says %g", got, rep.Leakage)
	}

	// The input is excluded from ranked rows; the rest rank by power.
	if len(rep.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (input excluded): %+v", len(rep.Rows), rep.Rows)
	}
	if rep.Rows[0].Name != "alu/y" || rep.Rows[1].Name != "ctl/q" || rep.Rows[2].Name != "alu/x" {
		t.Fatalf("ranking = %q %q %q, want alu/y ctl/q alu/x",
			rep.Rows[0].Name, rep.Rows[1].Name, rep.Rows[2].Name)
	}
	if rep.Rows[0].Class != ClassGate || rep.Rows[1].Class != ClassLatch {
		t.Fatalf("classes = %q %q, want gate latch", rep.Rows[0].Class, rep.Rows[1].Class)
	}
	var shares float64
	for _, r := range rep.Rows {
		shares += r.Share
	}
	if math.Abs(shares-1) > 1e-12 {
		t.Fatalf("row shares sum to %g, want 1", shares)
	}

	// Two modules → aggregated rows, ranked, shares summing to 1.
	if len(rep.Modules) != 2 {
		t.Fatalf("modules = %+v, want alu and ctl", rep.Modules)
	}
	alu := rep.Modules[0]
	if alu.Module != "alu" || alu.Nodes != 2 || alu.Toggles != 40 {
		t.Fatalf("top module = %+v, want alu with 2 nodes / 40 toggles", alu)
	}
	if got := rep.Modules[0].Share + rep.Modules[1].Share; math.Abs(got-1) > 1e-12 {
		t.Fatalf("module shares sum to %g, want 1", got)
	}
}

func TestBreakdownZeroObservationsLeakageOnly(t *testing.T) {
	c := hierCircuit(t)
	m := NewModel(c, DefaultCapModel(), DefaultSupply())
	rep := m.Breakdown(c, make([]uint64, c.NumNodes()), 0)
	if rep.Dynamic != 0 {
		t.Fatalf("dynamic = %g with zero observations, want 0", rep.Dynamic)
	}
	if rep.Leakage != m.TotalLeakage() || rep.Leakage <= 0 {
		t.Fatalf("leakage = %g, want %g > 0", rep.Leakage, m.TotalLeakage())
	}
	// Shares still defined: the grand total is the (positive) leakage.
	var shares float64
	for _, r := range rep.Rows {
		shares += r.Share
	}
	if math.Abs(shares-1) > 1e-12 {
		t.Fatalf("leakage-only shares sum to %g, want 1", shares)
	}
}

func TestBreakdownFlatCircuitHasNoModules(t *testing.T) {
	c := miniCircuit(t) // flat names → single "(top)" module, omitted
	m := NewModel(c, DefaultCapModel(), DefaultSupply())
	counts := make([]uint64, c.NumNodes())
	counts[c.Lookup("G1")] = 5
	rep := m.Breakdown(c, counts, 10)
	if rep.Modules != nil {
		t.Fatalf("flat circuit reported modules: %+v", rep.Modules)
	}
}

func TestTopRows(t *testing.T) {
	c := hierCircuit(t)
	m := NewModel(c, DefaultCapModel(), DefaultSupply())
	counts := make([]uint64, c.NumNodes())
	counts[c.Lookup("alu/y")] = 7
	rep := m.Breakdown(c, counts, 10)
	if n := len(rep.Rows); n != 3 {
		t.Fatalf("rows = %d, want 3", n)
	}
	if got := rep.TopRows(2); len(got) != 2 || got[0] != rep.Rows[0] {
		t.Fatalf("TopRows(2) = %+v", got)
	}
	if got := rep.TopRows(0); len(got) != 3 {
		t.Fatalf("TopRows(0) = %d rows, want all 3", len(got))
	}
	if got := rep.TopRows(99); len(got) != 3 {
		t.Fatalf("TopRows(99) = %d rows, want all 3", len(got))
	}
}

func TestMetricsObserve(t *testing.T) {
	// Nil registry disables the whole instrument set; nil receivers and
	// nil reports are no-ops.
	if m := NewMetrics(nil); m != nil {
		t.Fatalf("NewMetrics(nil) = %+v, want nil", m)
	}
	var nilM *Metrics
	nilM.Observe(&BreakdownReport{}) // must not panic

	c := hierCircuit(t)
	model := NewModel(c, DefaultCapModel(), DefaultSupply())
	counts := make([]uint64, c.NumNodes())
	counts[c.Lookup("alu/x")] = 4
	counts[c.Lookup("ctl/q")] = 6
	rep := model.Breakdown(c, counts, 10)

	m := NewMetrics(obs.NewRegistry())
	m.Observe(nil) // no-op
	m.Observe(rep)
	m.Observe(rep)
	if got := m.Breakdowns.Value(); got != 2 {
		t.Fatalf("breakdowns counter = %d, want 2", got)
	}
	if got := m.Toggles.Value(); got != 20 {
		t.Fatalf("toggles counter = %d, want 20 (2 reports x 10)", got)
	}
}
