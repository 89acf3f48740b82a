package netlist

import (
	"math/rand"
	"strings"
	"testing"
)

// csrTestCircuit builds a small sequential circuit exercising every
// structural feature the CSR must capture: multi-fanin gates, latch
// feedback, constants, and shared fanout.
func csrTestCircuit(t *testing.T) *Circuit {
	t.Helper()
	text := `INPUT(A)
INPUT(B)
OUTPUT(Y)
OUTPUT(Q)
Q = DFF(D)
ONE = VDD()
N1 = NAND(A, Q, ONE)
N2 = NOR(A, B)
D = XOR(N1, N2)
Y = NOT(D)
`
	c, err := ParseBenchString("csr", text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestCSRMatchesNodes: the flat arrays agree element-for-element with the
// per-Node slices for every node.
func TestCSRMatchesNodes(t *testing.T) {
	c := csrTestCircuit(t)
	r := c.CSR()
	if r.NumNodes() != c.NumNodes() {
		t.Fatalf("CSR has %d nodes, circuit %d", r.NumNodes(), c.NumNodes())
	}
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if r.Kind[i] != nd.Kind {
			t.Errorf("node %d kind %v, want %v", i, r.Kind[i], nd.Kind)
		}
		if int(r.Level[i]) != c.Level(NodeID(i)) {
			t.Errorf("node %d level %d, want %d", i, r.Level[i], c.Level(NodeID(i)))
		}
		fi := r.Fanin(int32(i))
		if len(fi) != len(nd.Fanin) {
			t.Fatalf("node %d fanin length %d, want %d", i, len(fi), len(nd.Fanin))
		}
		for j, f := range nd.Fanin {
			if fi[j] != int32(f) {
				t.Errorf("node %d fanin[%d] = %d, want %d", i, j, fi[j], f)
			}
		}
		fo := r.Fanout(int32(i))
		if len(fo) != len(nd.Fanout) {
			t.Fatalf("node %d fanout length %d, want %d", i, len(fo), len(nd.Fanout))
		}
		gates := 0
		for j, g := range nd.Fanout {
			if fo[j] != int32(g) {
				t.Errorf("node %d fanout[%d] = %d, want %d", i, j, fo[j], g)
			}
			if c.Nodes[g].Kind.IsCombinational() {
				gates++
			}
		}
		gfo := r.GateFanoutList[r.GateFanoutIdx[i]:r.GateFanoutIdx[i+1]]
		if len(gfo) != gates {
			t.Fatalf("node %d gate fanout length %d, want %d", i, len(gfo), gates)
		}
		for _, g := range gfo {
			if !c.Nodes[g].Kind.IsCombinational() {
				t.Errorf("node %d gate fanout contains non-gate %d", i, g)
			}
		}
	}
	if len(r.Order) != len(c.Order()) {
		t.Fatalf("order length %d, want %d", len(r.Order), len(c.Order()))
	}
	for i, id := range c.Order() {
		if r.Order[i] != int32(id) {
			t.Errorf("order[%d] = %d, want %d", i, r.Order[i], id)
		}
	}
	for i, id := range c.Latches {
		if r.Latches[i] != int32(id) {
			t.Errorf("latch[%d] = %d, want %d", i, r.Latches[i], id)
		}
		if r.LatchD[i] != int32(c.Nodes[id].Fanin[0]) {
			t.Errorf("latchD[%d] = %d, want %d", i, r.LatchD[i], c.Nodes[id].Fanin[0])
		}
	}
	if len(r.Const1s) != 1 || len(r.Const0s) != 0 {
		t.Errorf("constants: got %d const0, %d const1; want 0, 1", len(r.Const0s), len(r.Const1s))
	}
}

// TestCSRRandomCircuits cross-checks the CSR invariants (index
// monotonicity, totals, in-range entries) on randomly generated chains.
func TestCSRRandomCircuits(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		var sb strings.Builder
		sb.WriteString("INPUT(A)\nINPUT(B)\n")
		n := 3 + rng.Intn(40)
		prev := []string{"A", "B"}
		for i := 0; i < n; i++ {
			nm := "G" + itoa(i)
			a := prev[rng.Intn(len(prev))]
			b := prev[rng.Intn(len(prev))]
			op := []string{"AND", "OR", "NAND", "NOR", "XOR"}[rng.Intn(5)]
			sb.WriteString(nm + " = " + op + "(" + a + ", " + b + ")\n")
			prev = append(prev, nm)
		}
		sb.WriteString("OUTPUT(" + prev[len(prev)-1] + ")\n")
		c, err := ParseBenchString("rnd", sb.String())
		if err != nil {
			t.Fatal(err)
		}
		r := c.CSR()
		nn := int32(c.NumNodes())
		if r.FaninIdx[0] != 0 || r.FanoutIdx[0] != 0 {
			t.Fatal("CSR index arrays must start at 0")
		}
		for i := 0; i < int(nn); i++ {
			if r.FaninIdx[i] > r.FaninIdx[i+1] || r.FanoutIdx[i] > r.FanoutIdx[i+1] ||
				r.GateFanoutIdx[i] > r.GateFanoutIdx[i+1] {
				t.Fatalf("trial %d: non-monotone CSR index at node %d", trial, i)
			}
		}
		for _, f := range r.FaninList {
			if f < 0 || f >= nn {
				t.Fatalf("trial %d: fanin entry %d out of range", trial, f)
			}
		}
		for _, f := range r.FanoutList {
			if f < 0 || f >= nn {
				t.Fatalf("trial %d: fanout entry %d out of range", trial, f)
			}
		}
		if int(r.FaninIdx[nn]) != len(r.FaninList) || int(r.FanoutIdx[nn]) != len(r.FanoutList) {
			t.Fatalf("trial %d: CSR totals do not close", trial)
		}
		// Every directed edge appears exactly once in each direction.
		if len(r.FaninList) != len(r.FanoutList) {
			t.Fatalf("trial %d: %d fanin edges vs %d fanout edges",
				trial, len(r.FaninList), len(r.FanoutList))
		}
	}
}

// TestCSRPanicsUnfrozen: the accessor refuses unfrozen circuits.
func TestCSRPanicsUnfrozen(t *testing.T) {
	c := NewCircuit("unfrozen")
	defer func() {
		if recover() == nil {
			t.Fatal("CSR on unfrozen circuit did not panic")
		}
	}()
	c.CSR()
}
