package delay

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/netlist"
)

func chainCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("chain")
	a, _ := c.AddNode("A", logic.Input)
	g1, _ := c.AddNode("G1", logic.Not, a)
	g2, _ := c.AddNode("G2", logic.And, g1, a)
	g3, _ := c.AddNode("G3", logic.Or, g2, g1)
	_ = c.MarkOutput(g3)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestZeroModel(t *testing.T) {
	if (Zero{}).NodeDelay(logic.And, 5) != 0 {
		t.Fatal("zero model returned nonzero delay")
	}
	if (Zero{}).Name() == "" {
		t.Fatal("empty name")
	}
}

func TestUnitModel(t *testing.T) {
	m := Unit{}
	if m.NodeDelay(logic.And, 3) != 1 || m.NodeDelay(logic.Xor, 0) != 1 {
		t.Fatal("unit model gate delay != 1")
	}
	if m.NodeDelay(logic.Input, 3) != 0 || m.NodeDelay(logic.DFF, 1) != 0 {
		t.Fatal("unit model source delay != 0")
	}
}

func TestFanoutLoadedModel(t *testing.T) {
	m := FanoutLoaded{Base: 200, PerFanout: 100, InvDiscout: 80}
	if got := m.NodeDelay(logic.And, 3); got != 500 {
		t.Fatalf("AND fo=3 delay = %d, want 500", got)
	}
	if got := m.NodeDelay(logic.Not, 1); got != 220 {
		t.Fatalf("NOT fo=1 delay = %d, want 220", got)
	}
	if got := m.NodeDelay(logic.Input, 9); got != 0 {
		t.Fatalf("input delay = %d, want 0", got)
	}
	// Delay never drops below 1 ps for combinational gates.
	m2 := FanoutLoaded{Base: 10, PerFanout: 0, InvDiscout: 100}
	if got := m2.NodeDelay(logic.Not, 1); got != 1 {
		t.Fatalf("clamped delay = %d, want 1", got)
	}
}

func TestBuildTable(t *testing.T) {
	c := chainCircuit(t)
	tab := BuildTable(c, DefaultFanoutLoaded())
	if len(tab.Delays) != c.NumNodes() {
		t.Fatalf("table size %d, want %d", len(tab.Delays), c.NumNodes())
	}
	a := c.Lookup("A")
	if tab.Delays[a] != 0 {
		t.Fatalf("input delay %d", tab.Delays[a])
	}
	// G1 (NOT) drives G2 and G3: fanout 2 -> 200 + 200 - 80 = 320.
	g1 := c.Lookup("G1")
	if tab.Delays[g1] != 320 {
		t.Fatalf("G1 delay = %d, want 320", tab.Delays[g1])
	}
}

func TestDefaultSettlesWithinPaperClock(t *testing.T) {
	// The default coefficients must settle the deepest benchmark-scale
	// chain (~60 levels at fanout 4) within the paper's 50 ns period.
	m := DefaultFanoutLoaded()
	perLevel := m.NodeDelay(logic.And, 4)
	if total := 60 * perLevel; total > 50_000 {
		t.Fatalf("60 levels at fanout 4 = %d ps > 50 ns clock", total)
	}
}

func TestTableAllZero(t *testing.T) {
	c := chainCircuit(t)
	if !BuildTable(c, Zero{}).AllZero() {
		t.Error("zero table not AllZero")
	}
	if BuildTable(c, Unit{}).AllZero() {
		t.Error("unit table reported AllZero")
	}
	if BuildTable(c, DefaultFanoutLoaded()).AllZero() {
		t.Error("fanout table reported AllZero")
	}
}
