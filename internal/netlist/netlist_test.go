package netlist

import (
	"strings"
	"testing"

	"repro/internal/logic"
)

// buildToggle constructs the smallest interesting sequential circuit:
// a single DFF whose D input is the inverse of its output.
func buildToggle(t *testing.T) *Circuit {
	t.Helper()
	c := NewCircuit("toggle")
	q, err := c.AddNode("Q", logic.DFF)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := c.AddNode("NQ", logic.Not, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetFanin(q, inv); err != nil {
		t.Fatal(err)
	}
	if err := c.MarkOutput(inv); err != nil {
		t.Fatal(err)
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBuildAndFreeze(t *testing.T) {
	c := buildToggle(t)
	if got := c.NumGates(); got != 1 {
		t.Errorf("NumGates = %d, want 1", got)
	}
	if got := len(c.Latches); got != 1 {
		t.Errorf("latches = %d, want 1", got)
	}
	if got := len(c.Order()); got != 1 {
		t.Errorf("order length = %d, want 1", got)
	}
	// Fanout derivation: Q drives NQ, NQ drives Q.
	q, nq := c.Lookup("Q"), c.Lookup("NQ")
	if len(c.Nodes[q].Fanout) != 1 || c.Nodes[q].Fanout[0] != nq {
		t.Errorf("Q fanout = %v", c.Nodes[q].Fanout)
	}
	if len(c.Nodes[nq].Fanout) != 1 || c.Nodes[nq].Fanout[0] != q {
		t.Errorf("NQ fanout = %v", c.Nodes[nq].Fanout)
	}
}

func TestDuplicateNameRejected(t *testing.T) {
	c := NewCircuit("dup")
	if _, err := c.AddNode("A", logic.Input); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode("A", logic.Input); err == nil {
		t.Fatal("duplicate AddNode succeeded")
	}
}

func TestFrozenCircuitIsImmutable(t *testing.T) {
	c := buildToggle(t)
	if _, err := c.AddNode("X", logic.Input); err == nil {
		t.Error("AddNode on frozen circuit succeeded")
	}
	if err := c.SetFanin(0, 0); err == nil {
		t.Error("SetFanin on frozen circuit succeeded")
	}
	if err := c.MarkOutput(0); err == nil {
		t.Error("MarkOutput on frozen circuit succeeded")
	}
}

func TestCombinationalCycleDetected(t *testing.T) {
	c := NewCircuit("cyc")
	a, _ := c.AddNode("A", logic.Input)
	g1, _ := c.AddNode("G1", logic.And)
	g2, _ := c.AddNode("G2", logic.Or)
	if err := c.SetFanin(g1, a, g2); err != nil {
		t.Fatal(err)
	}
	if err := c.SetFanin(g2, g1, a); err != nil {
		t.Fatal(err)
	}
	if err := c.Freeze(); err == nil {
		t.Fatal("Freeze accepted a combinational cycle")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSequentialFeedbackAllowed(t *testing.T) {
	// Feedback through a DFF must not be reported as a cycle.
	if c := buildToggle(t); !c.Frozen() {
		t.Fatal("toggle circuit did not freeze")
	}
}

func TestFaninArityValidation(t *testing.T) {
	c := NewCircuit("arity")
	a, _ := c.AddNode("A", logic.Input)
	if _, err := c.AddNode("G", logic.And, a); err != nil {
		t.Fatal(err) // arity is checked at Freeze, not AddNode
	}
	if err := c.Freeze(); err == nil {
		t.Fatal("Freeze accepted a 1-input AND")
	}
}

func TestNotWithTwoInputsRejected(t *testing.T) {
	c := NewCircuit("arity2")
	a, _ := c.AddNode("A", logic.Input)
	b, _ := c.AddNode("B", logic.Input)
	if _, err := c.AddNode("G", logic.Not, a, b); err != nil {
		t.Fatal(err)
	}
	if err := c.Freeze(); err == nil {
		t.Fatal("Freeze accepted a 2-input NOT")
	}
}

func TestLevelization(t *testing.T) {
	// A -> G1 -> G2 -> G3 chain: levels 1, 2, 3.
	c := NewCircuit("chain")
	a, _ := c.AddNode("A", logic.Input)
	g1, _ := c.AddNode("G1", logic.Not, a)
	g2, _ := c.AddNode("G2", logic.Not, g1)
	g3, _ := c.AddNode("G3", logic.Not, g2)
	_ = c.MarkOutput(g3)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	wantLevels := map[NodeID]int{a: 0, g1: 1, g2: 2, g3: 3}
	for id, want := range wantLevels {
		if got := c.Level(id); got != want {
			t.Errorf("Level(%s) = %d, want %d", c.Nodes[id].Name, got, want)
		}
	}
	if c.Depth() != 3 {
		t.Errorf("Depth = %d, want 3", c.Depth())
	}
	// Order respects dependencies.
	pos := map[NodeID]int{}
	for i, id := range c.Order() {
		pos[id] = i
	}
	if !(pos[g1] < pos[g2] && pos[g2] < pos[g3]) {
		t.Errorf("order %v violates dependencies", c.Order())
	}
}

const miniBench = `
# tiny test circuit
INPUT(A)
INPUT(B)
OUTPUT(Y)
Q = DFF(D)
N1 = NAND(A, Q)
D = XOR(N1, B)
Y = NOT(D)
`

func TestParseBench(t *testing.T) {
	c, err := ParseBenchString("mini", miniBench)
	if err != nil {
		t.Fatal(err)
	}
	st := c.ComputeStats()
	if st.Inputs != 2 || st.Outputs != 1 || st.Latches != 1 || st.Gates != 3 {
		t.Fatalf("stats = %+v", st)
	}
	q := c.Lookup("Q")
	d := c.Lookup("D")
	if c.Nodes[q].Fanin[0] != d {
		t.Errorf("DFF D pin resolves to %v, want %v", c.Nodes[q].Fanin[0], d)
	}
}

func TestParseBenchForwardReference(t *testing.T) {
	// D is referenced by the DFF before it is defined: must parse.
	if _, err := ParseBenchString("fwd", "INPUT(A)\nQ = DFF(D)\nD = NOT(A)\n"); err != nil {
		t.Fatal(err)
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []struct {
		name string
		text string
		want string
	}{
		{"undefined", "INPUT(A)\nG = NOT(B)\n", "undefined"},
		{"unknown fn", "INPUT(A)\nG = FROB(A)\n", "unknown gate function"},
		{"malformed", "INPUT(A)\nG = NOT A\n", "malformed"},
		{"no assign", "INPUT(A)\nNOT(A)\n", "" /* any error */},
		{"dup", "INPUT(A)\nINPUT(A)\n", "duplicate"},
		{"undef output", "INPUT(A)\nOUTPUT(Z)\nG = NOT(A)\n", "undefined"},
		{"empty arg", "INPUT(A)\nG = AND(A,)\n", "empty argument"},
		{"input as fn", "INPUT(A)\nG = INPUT(A)\n", "INPUT used as gate"},
	}
	for _, tc := range cases {
		_, err := ParseBenchString(tc.name, tc.text)
		if err == nil {
			t.Errorf("%s: parse succeeded, want error", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseBenchComments(t *testing.T) {
	text := "INPUT(A) # trailing comment\n# whole-line comment\nG = NOT(A)\n"
	c, err := ParseBenchString("c", text)
	if err != nil {
		t.Fatal(err)
	}
	if c.Lookup("G") == InvalidNode {
		t.Fatal("node G missing")
	}
}

func TestWriteBenchRoundTrip(t *testing.T) {
	c1, err := ParseBenchString("mini", miniBench)
	if err != nil {
		t.Fatal(err)
	}
	text := BenchString(c1)
	c2, err := ParseBenchString("mini", text)
	if err != nil {
		t.Fatalf("reparse failed: %v\n%s", err, text)
	}
	if BenchString(c2) != text {
		t.Fatal("round trip is not a fixed point")
	}
	s1, s2 := c1.ComputeStats(), c2.ComputeStats()
	if s1 != s2 {
		t.Fatalf("stats changed across round trip: %+v vs %+v", s1, s2)
	}
}

func TestLookupMissing(t *testing.T) {
	c := buildToggle(t)
	if c.Lookup("nope") != InvalidNode {
		t.Fatal("Lookup of missing name did not return InvalidNode")
	}
}

func TestStatsString(t *testing.T) {
	st := buildToggle(t).ComputeStats()
	s := st.String()
	if !strings.Contains(s, "toggle") || !strings.Contains(s, "1 DFF") {
		t.Errorf("Stats.String() = %q", s)
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	text := "input(A)\noutput(Y)\nY = not(A)\n"
	c, err := ParseBenchString("lower", text)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 1 || len(c.Outputs) != 1 {
		t.Fatalf("lowercase keywords not handled: %+v", c.ComputeStats())
	}
}
