package sim

import (
	"math/rand"
	"testing"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// xorChain builds IN -> (delayed path) XOR (direct path) so that an input
// edge produces a glitch at the XOR under unequal path delays:
//
//	Y = XOR(B2, A) with B2 = NOT(NOT(A))
//
// Functionally Y is always 0, so zero-delay simulation sees no
// transitions at Y; event-driven simulation with unit delays sees a
// pulse (two transitions) per input edge.
func xorChain(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("xorchain")
	a, _ := c.AddNode("A", logic.Input)
	b1, _ := c.AddNode("B1", logic.Not, a)
	b2, _ := c.AddNode("B2", logic.Not, b1)
	y, _ := c.AddNode("Y", logic.Xor, b2, a)
	_ = c.MarkOutput(y)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

func unitWeights(c *netlist.Circuit) []float64 {
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = 1
	}
	return w
}

func TestZeroDelayS27TruthTable(t *testing.T) {
	// s27 next-state/output ground truth computed by hand from the
	// netlist: with all inputs 0 and state (G5,G6,G7) = (0,0,0):
	//   G14=NOT(0)=1, G12=NOR(0,0)=1, G13=NOR(0,1)=0, G8=AND(1,0)=0,
	//   G15=OR(1,0)=1, G16=OR(0,0)=0, G9=NAND(0,1)=1, G11=NOR(0,1)=0,
	//   G10=NOR(1,0)=0, G17=NOT(0)=1.
	c := bench89.S27()
	zd := NewZeroDelay(c)
	vals := make([]bool, c.NumNodes())
	pins := make([]bool, 4)
	q := make([]bool, 3)
	zd.Settle(vals, pins, q)

	get := func(name string) bool { return vals[c.Lookup(name)] }
	checks := map[string]bool{
		"G14": true, "G12": true, "G13": false, "G8": false,
		"G15": true, "G16": false, "G9": true, "G11": false,
		"G10": false, "G17": true,
	}
	for name, want := range checks {
		if got := get(name); got != want {
			t.Errorf("s27 reset-settle %s = %v, want %v", name, got, want)
		}
	}
	// Next state: (G10, G11, G13) = (0,0,0).
	nq := make([]bool, 3)
	zd.NextState(vals, nq)
	if nq[0] || nq[1] || nq[2] {
		t.Errorf("s27 next state from reset = %v, want all false", nq)
	}
	out := make([]bool, 1)
	zd.Outputs(vals, out)
	if !out[0] {
		t.Errorf("s27 output G17 = %v, want true", out[0])
	}
}

func TestEventDrivenSettlesToZeroDelayValues(t *testing.T) {
	// Property: after an event-driven cycle, node values equal a fresh
	// zero-delay settle of the same (pins, state). Checked across many
	// random cycles on several circuits and delay models.
	circuits := []*netlist.Circuit{bench89.S27(), bench89.MustGet("s298"), bench89.MustGet("s386")}
	models := []delay.Model{delay.Unit{}, delay.DefaultFanoutLoaded()}
	for _, c := range circuits {
		for _, dm := range models {
			rng := rand.New(rand.NewSource(42))
			zd := NewZeroDelay(c)
			ed := NewEventDriven(c, delay.BuildTable(c, dm))
			w := unitWeights(c)

			vals := make([]bool, c.NumNodes())
			ref := make([]bool, c.NumNodes())
			pins := make([]bool, len(c.Inputs))
			q := make([]bool, len(c.Latches))
			zd.Settle(vals, pins, q)

			for cycle := 0; cycle < 200; cycle++ {
				for i := range pins {
					pins[i] = rng.Intn(2) == 1
				}
				for i := range q {
					q[i] = rng.Intn(2) == 1
				}
				ed.Cycle(vals, pins, q, w, nil)
				zd.Settle(ref, pins, q)
				for i := range vals {
					if vals[i] != ref[i] {
						t.Fatalf("%s/%s cycle %d: node %s settled to %v, zero-delay says %v",
							c.Name, dm.Name(), cycle, c.Nodes[i].Name, vals[i], ref[i])
					}
				}
			}
		}
	}
}

func TestEventDrivenCountsGlitches(t *testing.T) {
	c := xorChain(t)
	zd := NewZeroDelay(c)
	ed := NewEventDriven(c, delay.BuildTable(c, delay.Unit{}))
	w := unitWeights(c)
	y := c.Lookup("Y")

	vals := make([]bool, c.NumNodes())
	zd.Settle(vals, []bool{false}, nil)
	counts := make([]uint64, c.NumNodes())
	ed.Cycle(vals, []bool{true}, nil, w, counts)

	// The XOR must glitch: 0 -> 1 (direct path) -> 0 (delayed path).
	if counts[y] != 2 {
		t.Fatalf("XOR glitch transitions = %d, want 2", counts[y])
	}
	if vals[y] != false {
		t.Fatalf("XOR settled to %v, want false", vals[y])
	}
}

func TestInertialFilteringSuppressesShortPulse(t *testing.T) {
	// Same circuit, but the XOR is slow (fanout-loaded base much larger
	// than the inverter-chain skew): the 2-unit input skew pulse is
	// shorter than the XOR delay, so inertial filtering removes it.
	c := xorChain(t)
	tab := delay.BuildTable(c, delay.Unit{})
	y := c.Lookup("Y")
	tab.Delays[y] = 100 // pulse width is 2 (two NOT delays) << 100
	zd := NewZeroDelay(c)
	ed := NewEventDriven(c, tab)
	w := unitWeights(c)

	vals := make([]bool, c.NumNodes())
	zd.Settle(vals, []bool{false}, nil)
	counts := make([]uint64, c.NumNodes())
	ed.Cycle(vals, []bool{true}, nil, w, counts)
	if counts[y] != 0 {
		t.Fatalf("slow XOR transitions = %d, want 0 (inertial filtering)", counts[y])
	}
}

func TestZeroDelayModelSeesNoGlitches(t *testing.T) {
	// Under the all-zero delay model the event simulator must count
	// exactly the functional transitions.
	c := xorChain(t)
	zd := NewZeroDelay(c)
	ed := NewEventDriven(c, delay.BuildTable(c, delay.Zero{}))
	w := unitWeights(c)
	y := c.Lookup("Y")

	vals := make([]bool, c.NumNodes())
	zd.Settle(vals, []bool{false}, nil)
	counts := make([]uint64, c.NumNodes())
	ed.Cycle(vals, []bool{true}, nil, w, counts)
	if counts[y] != 0 {
		t.Fatalf("zero-delay XOR transitions = %d, want 0", counts[y])
	}
}

func TestEventDrivenWeightedSumMatchesCounts(t *testing.T) {
	c := bench89.MustGet("s298")
	rng := rand.New(rand.NewSource(9))
	zd := NewZeroDelay(c)
	ed := NewEventDriven(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()))
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = rng.Float64()
	}
	vals := make([]bool, c.NumNodes())
	pins := make([]bool, len(c.Inputs))
	q := make([]bool, len(c.Latches))
	zd.Settle(vals, pins, q)
	for cycle := 0; cycle < 50; cycle++ {
		for i := range pins {
			pins[i] = rng.Intn(2) == 1
		}
		for i := range q {
			q[i] = rng.Intn(2) == 1
		}
		counts := make([]uint64, c.NumNodes())
		sum := ed.Cycle(vals, pins, q, w, counts)
		var want float64
		for i, n := range counts {
			want += w[i] * float64(n)
		}
		if diff := sum - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("cycle %d: weighted sum %g, counts say %g", cycle, sum, want)
		}
	}
}

func TestEventDrivenDeterministic(t *testing.T) {
	c := bench89.MustGet("s344")
	run := func() float64 {
		s := NewScalarSession(c, NewEventDriven(c, delay.BuildTable(c, delay.DefaultFanoutLoaded())),
			vectors.NewIID(len(c.Inputs), 0.5, 77), unitWeights(c))
		total := 0.0
		for i := 0; i < 200; i++ {
			total += s.StepSampled(nil)
		}
		return total
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("identical runs diverged: %g vs %g", a, b)
	}
}

func TestSessionInterleavingInvariant(t *testing.T) {
	// Interleaving hidden and sampled steps must visit the same state
	// trajectory as sampling every cycle (the FSM path depends only on
	// the input stream, not on which simulator advances it).
	c := bench89.MustGet("s386")
	tab := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	w := unitWeights(c)

	sA := NewScalarSession(c, NewEventDriven(c, tab), vectors.NewIID(len(c.Inputs), 0.5, 123), w)
	sB := NewScalarSession(c, NewEventDriven(c, tab), vectors.NewIID(len(c.Inputs), 0.5, 123), w)

	qA := make([]bool, len(c.Latches))
	qB := make([]bool, len(c.Latches))
	for step := 0; step < 300; step++ {
		if step%3 == 0 {
			sA.StepSampled(nil)
		} else {
			sA.StepHidden()
		}
		sB.StepSampled(nil)
		sA.State(qA)
		sB.State(qB)
		for i := range qA {
			if qA[i] != qB[i] {
				t.Fatalf("step %d: latch %d diverged between hidden and sampled paths", step, i)
			}
		}
	}
}

func TestSessionCycleCounters(t *testing.T) {
	c := bench89.S27()
	s := NewSession(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()),
		vectors.NewIID(4, 0.5, 1), unitWeights(c))
	s.StepHiddenN(10)
	s.StepSampled(nil)
	s.StepSampled(nil)
	if s.HiddenCycles != 10 || s.SampledCycles != 2 {
		t.Fatalf("counters = %d/%d, want 10/2", s.HiddenCycles, s.SampledCycles)
	}
	s.ResetCounters()
	if s.HiddenCycles != 0 || s.SampledCycles != 0 {
		t.Fatal("ResetCounters did not clear")
	}
}

func TestSessionReset(t *testing.T) {
	c := bench89.MustGet("s298")
	s := NewScalarSession(c, NewEventDriven(c, delay.BuildTable(c, delay.DefaultFanoutLoaded())),
		vectors.NewIID(len(c.Inputs), 0.5, 5), unitWeights(c))
	s.StepHiddenN(50)
	s.Reset()
	q := make([]bool, len(c.Latches))
	s.State(q)
	for i, b := range q {
		if b {
			t.Fatalf("latch %d not reset", i)
		}
	}
}

func TestSessionSetState(t *testing.T) {
	c := bench89.S27()
	s := NewScalarSession(c, NewEventDriven(c, delay.BuildTable(c, delay.DefaultFanoutLoaded())),
		vectors.NewIID(4, 0.5, 1), unitWeights(c))
	want := []bool{true, false, true}
	s.SetState(want)
	got := make([]bool, 3)
	s.State(got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SetState not applied: %v vs %v", got, want)
		}
	}
}

func TestSettleTimeWithinClock(t *testing.T) {
	// All benchmark circuits must settle within the paper's 50 ns clock
	// under the default delay model.
	for _, name := range []string{"s27", "s298", "s1494"} {
		c := bench89.MustGet(name)
		s := NewScalarSession(c, NewEventDriven(c, delay.BuildTable(c, delay.DefaultFanoutLoaded())),
			vectors.NewIID(len(c.Inputs), 0.5, 3), unitWeights(c))
		var worst delay.Picoseconds
		for i := 0; i < 100; i++ {
			s.StepSampled(nil)
			if st := s.SettleTime(); st > worst {
				worst = st
			}
		}
		if worst > 50_000 {
			t.Errorf("%s settle time %d ps exceeds 50 ns clock", name, worst)
		}
	}
}

func TestSessionPanicsOnWidthMismatch(t *testing.T) {
	c := bench89.S27()
	mustPanic := func(name string, build func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic for mismatched source width", name)
			}
		}()
		build()
	}
	src := func() vectors.Source { return vectors.NewIID(3, 0.5, 1) } // s27 has 4 inputs
	mustPanic("Session", func() {
		NewSession(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()), src(), unitWeights(c))
	})
	mustPanic("ScalarSession", func() { NewScalarSession(c, NewZeroDelayToggle(c), src(), unitWeights(c)) })
}

func TestConstantNodesNeverTransition(t *testing.T) {
	text := "INPUT(A)\nC1 = CONST1()\nG = AND(A, C1)\n"
	c, err := netlist.ParseBenchString("const", text)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(c, delay.BuildTable(c, delay.Unit{}),
		vectors.NewIID(1, 0.5, 11), unitWeights(c))
	counts := make([]uint64, c.NumNodes())
	for i := 0; i < 100; i++ {
		s.StepSampled(counts)
	}
	if n := counts[c.Lookup("C1")]; n != 0 {
		t.Fatalf("constant node transitioned %d times", n)
	}
}
