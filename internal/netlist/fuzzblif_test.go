package netlist

import "testing"

// FuzzParseBLIF is the native Go fuzz target for the BLIF front end,
// seeded from the BLIF fixtures of blif_test.go. It holds the parser to
// the invariants of TestBLIFNeverPanicsOnMutants and
// TestBLIFToBenchRoundTrip on arbitrary input: ParseBLIFString never
// panics, and whatever it accepts is a frozen circuit that survives a
// .bench write/re-parse round trip with its stats unchanged. Run with
//
//	go test -fuzz=FuzzParseBLIF ./internal/netlist
//
// to explore; the seed corpus runs as a plain unit test.
func FuzzParseBLIF(f *testing.F) {
	for _, seed := range []string{
		blifXOR,
		blifToggle,
		".model offset\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n",
		".model consts\n.inputs a\n.outputs one zero empty\n.names one\n1\n.names zero\n0\n.names empty\n.names a g\n- 1\n.outputs g\n.end\n",
		".model cont\n.inputs a \\\nb\n.outputs y\n.names a b y\n11 1\n.end\n",
		".inputs a\n.outputs y\n.names a y\n2 1\n",
		".inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n",
		".inputs a\n.outputs a\n.latch a\n",
		".inputs a\n.outputs a\n.subckt foo x=a\n",
		".inputs a\n.outputs y\n.names a y\n1 1\n.names a y\n0 1\n",
		".inputs a b\n.outputs output_y\n.names a b output_y\n11 1\n.latch output_y input_q\n",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := ParseBLIFString("fuzz", text)
		if err != nil {
			return
		}
		if c == nil || !c.Frozen() {
			t.Fatal("parser returned ok with nil or unfrozen circuit")
		}
		again, err := ParseBenchString(c.Name, BenchString(c))
		if err != nil {
			t.Fatalf("bench round trip failed: %v\noriginal input:\n%s\nbench text:\n%s", err, text, BenchString(c))
		}
		if a, b := c.ComputeStats(), again.ComputeStats(); a != b {
			t.Fatalf("bench round trip changed stats: %+v vs %+v", a, b)
		}
	})
}
