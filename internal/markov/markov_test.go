package markov

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench89"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// counter2 builds a free-running 2-bit counter (no inputs beyond a dummy
// enable held irrelevant): next q0 = !q0, next q1 = q1 XOR q0. Its STG is
// a 4-cycle with uniform stationary distribution.
func counter2(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("counter2")
	// One dummy input so the input-probability machinery is exercised.
	_, _ = c.AddNode("EN", logic.Input)
	q0, _ := c.AddNode("Q0", logic.DFF)
	q1, _ := c.AddNode("Q1", logic.DFF)
	n0, _ := c.AddNode("N0", logic.Not, q0)
	x1, _ := c.AddNode("X1", logic.Xor, q1, q0)
	_ = c.SetFanin(q0, n0)
	_ = c.SetFanin(q1, x1)
	_ = c.MarkOutput(x1)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestExtractCounterSTG(t *testing.T) {
	c := counter2(t)
	g, err := Extract(c, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() != 4 {
		t.Fatalf("states = %d, want 4", g.NumStates())
	}
	// Deterministic next state: every row has exactly one transition of
	// probability 1 (the input is irrelevant).
	for si, row := range g.Rows {
		if len(row) != 1 {
			t.Fatalf("state %d has %d successors, want 1", si, len(row))
		}
		for _, p := range row {
			if math.Abs(p-1) > 1e-12 {
				t.Fatalf("state %d transition prob %g, want 1", si, p)
			}
		}
	}
	// The cycle visits 00 -> 01 -> 10 -> 11 -> 00 (q0 toggles, q1 xors).
	cur := g.Index[0]
	seen := map[int]bool{cur: true}
	for i := 0; i < 3; i++ {
		for ti := range g.Rows[cur] {
			cur = ti
		}
		if seen[cur] {
			t.Fatalf("counter STG revisits state %d early", cur)
		}
		seen[cur] = true
	}
}

func TestStationaryUniformOnCounter(t *testing.T) {
	c := counter2(t)
	g, err := Extract(c, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := g.Stationary(1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pi {
		if math.Abs(p-0.25) > 1e-6 {
			t.Errorf("pi[%d] = %g, want 0.25", i, p)
		}
	}
}

func TestStationaryIsFixedPoint(t *testing.T) {
	c := bench89.S27()
	p := []float64{0.5, 0.5, 0.5, 0.5}
	g, err := Extract(c, p)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := g.Stationary(1e-13, 200000)
	if err != nil {
		t.Fatal(err)
	}
	// Check sum to 1 and pi*P = pi.
	var sum float64
	for _, v := range pi {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("stationary sums to %g", sum)
	}
	next := make([]float64, len(pi))
	for si, row := range g.Rows {
		for ti, pr := range row {
			next[ti] += pi[si] * pr
		}
	}
	for i := range pi {
		if math.Abs(next[i]-pi[i]) > 1e-6 {
			t.Fatalf("pi*P != pi at state %d: %g vs %g", i, next[i], pi[i])
		}
	}
}

func TestRowsAreStochastic(t *testing.T) {
	c := bench89.S27()
	g, err := Extract(c, []float64{0.3, 0.5, 0.7, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for si, row := range g.Rows {
		var sum float64
		for _, p := range row {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %g", si, sum)
		}
	}
}

func TestMixingTime(t *testing.T) {
	c := bench89.S27()
	p := []float64{0.5, 0.5, 0.5, 0.5}
	g, err := Extract(c, p)
	if err != nil {
		t.Fatal(err)
	}
	pi, err := g.Stationary(1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	k, err := g.MixingTime(pi, 0.01, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if k <= 0 || k > 1000 {
		t.Fatalf("mixing time = %d, implausible for s27", k)
	}
	// Tighter tolerance cannot mix faster.
	k2, err := g.MixingTime(pi, 0.0001, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if k2 < k {
		t.Fatalf("mixing time decreased with tighter tolerance: %d < %d", k2, k)
	}
}

func TestMixingTimeNeverOnPeriodicChain(t *testing.T) {
	// The pure counter is periodic: distribution from reset never
	// converges, so MixingTime must error out rather than lie.
	c := counter2(t)
	g, err := Extract(c, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	pi, err := g.Stationary(1e-12, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.MixingTime(pi, 0.01, 1000); err == nil {
		t.Fatal("MixingTime converged on a periodic chain")
	}
}

func TestComplexityGuards(t *testing.T) {
	big := bench89.MustGet("s1423") // 74 latches
	if _, err := Extract(big, uniformP(len(big.Inputs))); err == nil {
		t.Fatal("Extract accepted a 74-latch circuit")
	}
	wide := bench89.MustGet("s641") // 35 inputs
	if _, err := Extract(wide, uniformP(len(wide.Inputs))); err == nil {
		t.Fatal("Extract accepted a 35-input circuit")
	}
	s27 := bench89.S27()
	if _, err := Extract(s27, []float64{0.5}); err == nil {
		t.Fatal("Extract accepted a mis-sized probability vector")
	}
}

func uniformP(n int) []float64 {
	p := make([]float64, n)
	for i := range p {
		p[i] = 0.5
	}
	return p
}

func TestSampleStateMatchesDistribution(t *testing.T) {
	c := counter2(t)
	g, err := Extract(c, []float64{0.5})
	if err != nil {
		t.Fatal(err)
	}
	dist := []float64{0.7, 0.1, 0.1, 0.1}
	rng := rand.New(rand.NewSource(1))
	q := make([]bool, 2)
	counts := make(map[uint64]int)
	const n = 20000
	for i := 0; i < n; i++ {
		g.SampleState(dist, rng, q)
		var key uint64
		if q[0] {
			key |= 1
		}
		if q[1] {
			key |= 2
		}
		counts[key]++
	}
	for i, want := range dist {
		key := g.States[i]
		got := float64(counts[key]) / n
		if math.Abs(got-want) > 0.02 {
			t.Errorf("state %d sampled %g, want %g", i, got, want)
		}
	}
}

func TestReachableSubsetOnly(t *testing.T) {
	// s27 has 3 latches = 8 conceivable states; only the reachable ones
	// appear.
	c := bench89.S27()
	g, err := Extract(c, uniformP(4))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumStates() < 2 || g.NumStates() > 8 {
		t.Fatalf("s27 reachable states = %d", g.NumStates())
	}
	for _, key := range g.States {
		if key > 7 {
			t.Fatalf("state key %d exceeds 3-bit space", key)
		}
	}
}
