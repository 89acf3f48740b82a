package netlist

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/logic"
)

// evalCircuit computes all node values for given source assignments.
func evalCircuit(c *Circuit, assign map[string]bool) []bool {
	vals := make([]bool, len(c.Nodes))
	for i := range c.Nodes {
		if c.Nodes[i].Kind.IsSource() {
			switch c.Nodes[i].Kind {
			case logic.Const0:
				vals[i] = false
			case logic.Const1:
				vals[i] = true
			default:
				vals[i] = assign[c.Nodes[i].Name]
			}
		}
	}
	for _, id := range c.Order() {
		nd := &c.Nodes[id]
		in := make([]bool, len(nd.Fanin))
		for j, f := range nd.Fanin {
			in[j] = vals[f]
		}
		vals[id] = logic.Eval(nd.Kind, in)
	}
	return vals
}

const blifXOR = `
# 2-input xor as a sum of minterms
.model xor2
.inputs a b
.outputs y
.names a b y
10 1
01 1
.end
`

func TestBLIFXORCover(t *testing.T) {
	c, err := ParseBLIFString("xor", blifXOR)
	if err != nil {
		t.Fatal(err)
	}
	y := c.Lookup("y")
	for _, tc := range []struct{ a, b, want bool }{
		{false, false, false}, {true, false, true}, {false, true, true}, {true, true, false},
	} {
		vals := evalCircuit(c, map[string]bool{"a": tc.a, "b": tc.b})
		if vals[y] != tc.want {
			t.Errorf("xor(%v,%v) = %v, want %v", tc.a, tc.b, vals[y], tc.want)
		}
	}
}

func TestBLIFOffSetCover(t *testing.T) {
	// y is 0 exactly when a=1,b=1: i.e. y = NAND(a,b).
	text := `
.model offset
.inputs a b
.outputs y
.names a b y
11 0
.end
`
	c, err := ParseBLIFString("off", text)
	if err != nil {
		t.Fatal(err)
	}
	y := c.Lookup("y")
	for _, tc := range []struct{ a, b, want bool }{
		{false, false, true}, {true, false, true}, {false, true, true}, {true, true, false},
	} {
		vals := evalCircuit(c, map[string]bool{"a": tc.a, "b": tc.b})
		if vals[y] != tc.want {
			t.Errorf("nand(%v,%v) = %v, want %v", tc.a, tc.b, vals[y], tc.want)
		}
	}
}

func TestBLIFConstantCovers(t *testing.T) {
	text := `
.model consts
.inputs a
.outputs one zero empty
.names one
1
.names zero
0
.names empty
.names a g
- 1
.outputs g
.end
`
	// Note: ".names empty" with no cubes = constant 0; ".names a g" with
	// cube "- 1" = constant 1 regardless of a.
	c, err := ParseBLIFString("consts", text)
	if err != nil {
		t.Fatal(err)
	}
	vals := evalCircuit(c, map[string]bool{"a": false})
	if !vals[c.Lookup("one")] || vals[c.Lookup("zero")] || vals[c.Lookup("empty")] {
		t.Fatalf("constant covers wrong: one=%v zero=%v empty=%v",
			vals[c.Lookup("one")], vals[c.Lookup("zero")], vals[c.Lookup("empty")])
	}
	if !vals[c.Lookup("g")] {
		t.Fatal("all-dontcare cube should be constant 1")
	}
}

const blifToggle = `
.model toggle
.inputs en
.outputs q
.latch d q 0
.names en q d
10 1
01 1
.end
`

func TestBLIFLatch(t *testing.T) {
	// d = en XOR q: an enabled toggle flip-flop.
	c, err := ParseBLIFString("toggle", blifToggle)
	if err != nil {
		t.Fatal(err)
	}
	st := c.ComputeStats()
	if st.Latches != 1 || st.Inputs != 1 || st.Outputs != 1 {
		t.Fatalf("stats: %+v", st)
	}
	q := c.Lookup("q")
	if c.Nodes[q].Kind != logic.DFF {
		t.Fatalf("q is %s, want DFF", c.Nodes[q].Kind)
	}
	d := c.Lookup("d")
	if c.Nodes[q].Fanin[0] != d {
		t.Fatal("latch D pin not wired to cover output")
	}
	// Functional check: d = en xor q.
	for _, tc := range []struct{ en, q, want bool }{
		{false, false, false}, {true, false, true}, {false, true, true}, {true, true, false},
	} {
		vals := evalCircuit(c, map[string]bool{"en": tc.en, "q": tc.q})
		if vals[d] != tc.want {
			t.Errorf("d(en=%v,q=%v) = %v, want %v", tc.en, tc.q, vals[d], tc.want)
		}
	}
}

func TestBLIFEquivalentToBenchOnRandomFunctions(t *testing.T) {
	// Cross-format check: a random 3-input truth table expressed as a
	// BLIF minterm cover must equal the same function built from gates.
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		tt := rng.Intn(256) // 8-row truth table
		var cubes strings.Builder
		for row := 0; row < 8; row++ {
			if tt&(1<<row) == 0 {
				continue
			}
			for bit := 0; bit < 3; bit++ {
				if row&(1<<bit) != 0 {
					cubes.WriteByte('1')
				} else {
					cubes.WriteByte('0')
				}
			}
			cubes.WriteString(" 1\n")
		}
		text := ".model f\n.inputs x0 x1 x2\n.outputs y\n.names x0 x1 x2 y\n" + cubes.String() + ".end\n"
		if tt == 0 {
			text = ".model f\n.inputs x0 x1 x2\n.outputs y\n.names x0 x1 x2 y\n.end\n"
		}
		c, err := ParseBLIFString("f", text)
		if err != nil {
			t.Fatalf("tt=%02x: %v", tt, err)
		}
		y := c.Lookup("y")
		for row := 0; row < 8; row++ {
			assign := map[string]bool{
				"x0": row&1 != 0, "x1": row&2 != 0, "x2": row&4 != 0,
			}
			want := tt&(1<<row) != 0
			if got := evalCircuit(c, assign)[y]; got != want {
				t.Fatalf("tt=%02x row=%d: got %v want %v", tt, row, got, want)
			}
		}
	}
}

func TestBLIFLineContinuation(t *testing.T) {
	text := ".model cont\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n"
	c, err := ParseBLIFString("cont", text)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Inputs) != 2 {
		t.Fatalf("inputs = %d, want 2 (continuation)", len(c.Inputs))
	}
}

func TestBLIFErrors(t *testing.T) {
	cases := []struct{ name, text, want string }{
		{"bad cube char", ".inputs a\n.outputs y\n.names a y\n2 1\n", "bad cube"},
		{"bad out val", ".inputs a\n.outputs y\n.names a y\n1 x\n", "must be 0 or 1"},
		{"cube width", ".inputs a b\n.outputs y\n.names a b y\n1 1\n", "literals"},
		{"orphan cover line", ".inputs a\n.outputs a\n11 1\n", "outside .names"},
		{"undefined output", ".inputs a\n.outputs y\n", "undefined"},
		{"undefined cover input", ".inputs a\n.outputs y\n.names q y\n1 1\n", "undefined"},
		{"double definition", ".inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n", "twice"},
		{"mixed cover", ".inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n", "mixes"},
		{"latch arity", ".inputs a\n.outputs a\n.latch a\n", ".latch needs"},
		{"subckt", ".inputs a\n.outputs a\n.subckt foo x=a\n", "unsupported"},
		{"reserved character", ".inputs a,b\n.outputs a,b\n", ".bench reserves"},
		{"reserved in cover output", ".inputs a\n.outputs y(0)\n.names a y(0)\n1 1\n", ".bench reserves"},
	}
	for _, tc := range cases {
		_, err := ParseBLIFString(tc.name, tc.text)
		if err == nil {
			t.Errorf("%s: parse succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestBLIFToBenchRoundTrip(t *testing.T) {
	// A BLIF-parsed circuit must survive a .bench write/parse round trip.
	c, err := ParseBLIFString("toggle", blifToggle)
	if err != nil {
		t.Fatal(err)
	}
	text := BenchString(c)
	re, err := ParseBenchString("toggle", text)
	if err != nil {
		t.Fatalf("bench reparse: %v\n%s", err, text)
	}
	if re.ComputeStats() != c.ComputeStats() {
		t.Fatal("stats changed crossing formats")
	}
}

func TestBLIFNeverPanicsOnMutants(t *testing.T) {
	base := blifToggle
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 1500; trial++ {
		b := []byte(base)
		for m := 0; m <= rng.Intn(3); m++ {
			switch rng.Intn(3) {
			case 0:
				if len(b) > 1 {
					b = b[:rng.Intn(len(b))]
				}
			case 1:
				if len(b) > 0 {
					b[rng.Intn(len(b))] = byte(rng.Intn(128))
				}
			case 2:
				lines := strings.Split(string(b), "\n")
				rng.Shuffle(len(lines), func(i, j int) { lines[i], lines[j] = lines[j], lines[i] })
				b = []byte(strings.Join(lines, "\n"))
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("BLIF parser panicked on mutant %d:\n%s\npanic: %v", trial, b, r)
				}
			}()
			_, _ = ParseBLIFString("mutant", string(b))
		}()
	}
}
