package maxpower

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/refsim"
	"repro/internal/sim"
	"repro/internal/vectors"
)

func setup(t *testing.T, name string) (*netlist.Circuit, *delay.Table, []float64) {
	t.Helper()
	c := bench89.MustGet(name)
	tb := core.DefaultTestbench(c)
	return c, tb.Delays, tb.Weights()
}

func TestRandomSearchFindsPositivePeak(t *testing.T) {
	c, dt, w := setup(t, "s298")
	res, err := RandomSearch(c, dt, w, Options{Budget: 500, Restarts: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Power <= 0 {
		t.Fatalf("peak power %g", res.Power)
	}
	if res.Cycles < 500 {
		t.Fatalf("cycles = %d, want budget consumed", res.Cycles)
	}
}

func TestHillClimbBeatsRandomOnSameBudget(t *testing.T) {
	c, dt, w := setup(t, "s1494")
	opts := Options{Budget: 3000, Restarts: 4, Seed: 7}
	hc, err := HillClimb(c, dt, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := RandomSearch(c, dt, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Local search should find at least as high a peak; allow a small
	// tolerance for the stochastic edge case.
	if hc.Power < rs.Power*0.95 {
		t.Fatalf("hill climb %g below random search %g", hc.Power, rs.Power)
	}
}

func TestPeakExceedsAverage(t *testing.T) {
	// The found peak must exceed the average power substantially —
	// otherwise the search is broken.
	c, dt, w := setup(t, "s386")
	tb := core.DefaultTestbench(c)
	avg := refsim.Run(tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 2)), 256, 20_000).Power
	res, err := HillClimb(c, dt, w, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Power < 1.5*avg {
		t.Fatalf("peak %g not well above average %g", res.Power, avg)
	}
}

// replay is the search's scalar oracle: it settles (V1, State) and
// steps the latches with the zero-delay engine, then observes the cycle
// to (V2, delta(V1, State)) with the scalar event-driven engine.
func replay(c *netlist.Circuit, dt *delay.Table, weights []float64, r Result) float64 {
	zd := sim.NewZeroDelay(c)
	vals := make([]bool, c.NumNodes())
	s2 := make([]bool, len(c.Latches))
	zd.Settle(vals, r.V1, r.State)
	zd.NextState(vals, s2)
	return sim.NewEventDriven(c, dt).Cycle(vals, r.V2, s2, weights, nil)
}

func TestReplayReproducesPeak(t *testing.T) {
	c, dt, w := setup(t, "s344")
	res, err := HillClimb(c, dt, w, Options{Budget: 1000, Restarts: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := replay(c, dt, w, res); got != res.Power {
		t.Fatalf("replay %g != reported %g", got, res.Power)
	}
}

// TestEvalMatchesScalarOracle: the evaluator's session observes every
// candidate cycle bit-identically to the scalar oracle, one session
// serving the whole sequence of candidates.
func TestEvalMatchesScalarOracle(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s1494", "s5378"} {
		c, dt, w := setup(t, name)
		ev := newEvaluator(c, dt, w)
		cd := newCandidate(c)
		rng := rand.New(rand.NewSource(int64(len(name))))
		for i := 0; i < 64; i++ {
			cd.randomize(rng)
			got := ev.eval(cd.s1, cd.v1, cd.v2)
			want := replay(c, dt, w, Result{State: cd.s1, V1: cd.v1, V2: cd.v2})
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s candidate %d: session %v, scalar oracle %v", name, i, got, want)
			}
		}
	}
}

// bitString renders a pattern as 0s and 1s.
func bitString(v []bool) string {
	b := make([]byte, len(v))
	for i, x := range v {
		b[i] = '0'
		if x {
			b[i] = '1'
		}
	}
	return string(b)
}

// TestSearchResultsPinned pins both searches' results at fixed seeds,
// as recorded when the evaluator ran the scalar engines: the peak's
// power bits, its cycle and the cycles spent.
func TestSearchResultsPinned(t *testing.T) {
	for _, tc := range []struct {
		circuit, search string
		opts            Options
		power           uint64
		state, v1, v2   string
		cycles          int
	}{
		{"s27", "HillClimb", Options{Budget: 400, Restarts: 8, Seed: 5}, 0x3f254c985f06f694, "111", "0011", "1000", 217},
		{"s27", "RandomSearch", Options{Budget: 400, Restarts: 8, Seed: 5}, 0x3f254c985f06f694, "111", "0111", "1000", 400},
		{"s298", "HillClimb", Options{Budget: 800, Restarts: 8, Seed: 11}, 0x3f5782d38476f2aa, "11101100101011", "111", "101", 508},
		{"s298", "RandomSearch", Options{Budget: 800, Restarts: 8, Seed: 11}, 0x3f55182a9930be13, "11000110100001", "111", "100", 800},
		{"s1494", "HillClimb", Options{Budget: 600, Restarts: 8, Seed: 7}, 0x3f7ff04577d95540, "010101", "10001011", "11100010", 558},
		{"s1494", "RandomSearch", Options{Budget: 600, Restarts: 8, Seed: 7}, 0x3f7d41743e963da0, "010101", "10111011", "11111101", 600},
	} {
		c, dt, w := setup(t, tc.circuit)
		search := HillClimb
		if tc.search == "RandomSearch" {
			search = RandomSearch
		}
		r, err := search(c, dt, w, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got := math.Float64bits(r.Power); got != tc.power || bitString(r.State) != tc.state ||
			bitString(r.V1) != tc.v1 || bitString(r.V2) != tc.v2 || r.Cycles != tc.cycles {
			t.Errorf("%s %s: power %#x state %s V1 %s V2 %s in %d cycles, want %#x %s %s %s in %d",
				tc.circuit, tc.search, got, bitString(r.State), bitString(r.V1), bitString(r.V2), r.Cycles,
				tc.power, tc.state, tc.v1, tc.v2, tc.cycles)
		}
	}
}

func TestKnownOptimumOnInverterBank(t *testing.T) {
	// A bank of independent inverters: peak power = all inputs toggling,
	// computable exactly. Both searchers must find it (the objective is
	// separable, so hill climbing is exact here).
	c := netlist.NewCircuit("bank")
	const n = 6
	var weightsSum float64
	for i := 0; i < n; i++ {
		a, _ := c.AddNode(names("A", i), logic.Input)
		g, _ := c.AddNode(names("G", i), logic.Not, a)
		_ = c.MarkOutput(g)
		_ = a
	}
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	dt := delay.BuildTable(c, delay.Unit{})
	w := make([]float64, c.NumNodes())
	for i := range c.Nodes {
		if c.Nodes[i].Kind == logic.Not {
			w[i] = 1
			weightsSum += 1
		}
	}
	res, err := HillClimb(c, dt, w, Options{Budget: 2000, Restarts: 4, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Peak: every inverter switches once = n transitions.
	if res.Power != weightsSum {
		t.Fatalf("peak %g, want %g (all inverters toggling)", res.Power, weightsSum)
	}
}

func TestOptionsValidation(t *testing.T) {
	c, dt, w := setup(t, "s27")
	if _, err := RandomSearch(c, dt, w, Options{Budget: 0, Restarts: 1}); err == nil {
		t.Error("budget 0 accepted")
	}
	if _, err := HillClimb(c, dt, w, Options{Budget: 10, Restarts: 0}); err == nil {
		t.Error("restarts 0 accepted")
	}
}

func TestSearchDeterministicPerSeed(t *testing.T) {
	c, dt, w := setup(t, "s298")
	opts := Options{Budget: 800, Restarts: 2, Seed: 11}
	a, _ := HillClimb(c, dt, w, opts)
	b, _ := HillClimb(c, dt, w, opts)
	if a.Power != b.Power {
		t.Fatalf("same seed found %g and %g", a.Power, b.Power)
	}
}

func names(prefix string, i int) string {
	return prefix + string(rune('0'+i))
}
