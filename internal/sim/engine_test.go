package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/vectors"
)

// TestPropertyPackedZeroDelaySampledMatchesScalarToggle is the central
// property of the packed sampled phase: over random circuits, a packed
// zero-delay sampled step produces, on every one of the 64 lanes,
// exactly the power a scalar session with the ZeroDelayToggle engine
// produces over the same source — bit-identical floats, not just close,
// because both sum weights in node-index order. Hidden and sampled
// steps are interleaved as the estimator does.
func TestPropertyPackedZeroDelaySampledMatchesScalarToggle(t *testing.T) {
	check := func(seed uint32) bool {
		sig := randomSignature(seed)
		c, err := bench89.Generate(sig)
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		const lanes = MaxLanes
		base := int64(seed)*3000 + 13
		ps := NewPackedSession(c, laneSources(len(c.Inputs), lanes, base))
		w := make([]float64, c.NumNodes())
		for i := range w {
			w[i] = 0.25 + float64(i%7)*0.125
		}
		scalar := make([]*ScalarSession, lanes)
		for k := range scalar {
			scalar[k] = NewScalarSession(c, NewZeroDelayToggle(c),
				vectors.NewIID(len(c.Inputs), 0.5, base+int64(k)), w)
		}
		rng := rand.New(rand.NewSource(int64(seed) + 17))
		powers := make([]float64, lanes)
		vals := make([]bool, c.NumNodes())
		for cycle := 0; cycle < 20; cycle++ {
			if rng.Intn(2) == 0 {
				ps.StepHidden()
				for k := 0; k < lanes; k++ {
					scalar[k].StepHidden()
				}
			} else {
				ps.StepSampled(w, powers)
				for k := 0; k < lanes; k++ {
					p := scalar[k].StepSampled(nil)
					if p != powers[k] {
						t.Logf("seed %d cycle %d lane %d: packed power %g, scalar toggle %g",
							seed, cycle, k, powers[k], p)
						return false
					}
				}
			}
			for k := 0; k < lanes; k++ {
				ps.ExtractLane(k, vals, nil, nil)
				ref := scalar[k].Values()
				for i := range vals {
					if vals[i] != ref[i] {
						t.Logf("seed %d cycle %d lane %d: node %s mismatch",
							seed, cycle, k, c.Nodes[i].Name)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyZeroDelayToggleMatchesEventDrivenZeroTable: the toggle
// engine counts exactly the transitions an event-driven simulation
// under an all-zero delay table counts. With integer-valued weights the
// sums are exact regardless of summation order, so equality is exact.
// This is the equivalence delay.Table.AllZero's engine upgrade relies
// on.
func TestPropertyZeroDelayToggleMatchesEventDrivenZeroTable(t *testing.T) {
	check := func(seed uint32) bool {
		sig := randomSignature(seed)
		c, err := bench89.Generate(sig)
		if err != nil {
			return false
		}
		w := make([]float64, c.NumNodes())
		for i := range w {
			w[i] = float64(1 + i%9)
		}
		zt := delay.BuildTable(c, delay.Zero{})
		if !zt.AllZero() {
			t.Logf("seed %d: zero table not AllZero", seed)
			return false
		}
		a := NewScalarSession(c, NewZeroDelayToggle(c),
			vectors.NewIID(len(c.Inputs), 0.5, int64(seed)+5), w)
		b := NewScalarSession(c, NewEventDriven(c, zt),
			vectors.NewIID(len(c.Inputs), 0.5, int64(seed)+5), w)
		for cycle := 0; cycle < 40; cycle++ {
			pa := a.StepSampled(nil)
			pb := b.StepSampled(nil)
			if pa != pb {
				t.Logf("seed %d cycle %d: toggle %g, event-driven(zero) %g", seed, cycle, pa, pb)
				return false
			}
			ra, rb := a.Values(), b.Values()
			for i := range ra {
				if ra[i] != rb[i] {
					t.Logf("seed %d cycle %d: node %s mismatch", seed, cycle, c.Nodes[i].Name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestZeroDelayToggleCounts: the toggle engine fills per-node counts
// exactly like the diff it sums, and never counts a node twice per
// cycle.
func TestZeroDelayToggleCounts(t *testing.T) {
	c := bench89.MustGet("s298")
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = 1
	}
	s := NewScalarSession(c, NewZeroDelayToggle(c), vectors.NewIID(len(c.Inputs), 0.5, 3), w)
	counts := make([]uint64, c.NumNodes())
	var sum float64
	const cycles = 50
	for i := 0; i < cycles; i++ {
		sum += s.StepSampled(counts)
	}
	var total uint64
	for i, n := range counts {
		if n > cycles {
			t.Fatalf("node %s counted %d transitions in %d cycles", c.Nodes[i].Name, n, cycles)
		}
		total += uint64(n)
	}
	if float64(total) != sum {
		t.Fatalf("unit-weight power sum %g != total transition count %d", sum, total)
	}
	if s.SettleTime() != 0 || s.Events() != 0 {
		t.Fatal("toggle engine should report zero settle time and events")
	}
}

// TestPackedSampledFewerLanes: a partially filled packed session masks
// inactive lanes out of the sampled diff and still matches scalar
// toggle sessions lane-for-lane.
func TestPackedSampledFewerLanes(t *testing.T) {
	c := bench89.MustGet("s298")
	const lanes = 5
	base := int64(77)
	ps := NewPackedSession(c, laneSources(len(c.Inputs), lanes, base))
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = 1 + float64(i%3)
	}
	scalar := make([]*ScalarSession, lanes)
	for k := range scalar {
		scalar[k] = NewScalarSession(c, NewZeroDelayToggle(c),
			vectors.NewIID(len(c.Inputs), 0.5, base+int64(k)), w)
	}
	powers := make([]float64, lanes)
	for cycle := 0; cycle < 30; cycle++ {
		ps.StepSampled(w, powers)
		for k := 0; k < lanes; k++ {
			if p := scalar[k].StepSampled(nil); p != powers[k] {
				t.Fatalf("cycle %d lane %d: packed %g, scalar %g", cycle, k, powers[k], p)
			}
		}
	}
}

// TestEngineNames: the labels a session reports are what Result
// records promise — the event-driven engine and the table's delay
// model, or the zero-delay engine and the zero model without a table.
func TestEngineNames(t *testing.T) {
	c := bench89.S27()
	dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	w := make([]float64, c.NumNodes())
	src := func() vectors.Source { return vectors.NewIID(len(c.Inputs), 0.5, 1) }
	if name, model := NewSession(c, dt, src(), w).Engine(); name != EngineEventDriven || model != dt.ModelName {
		t.Fatalf("general-delay session labels: %q / %q", name, model)
	}
	if name, model := NewSession(c, nil, src(), w).Engine(); name != EngineZeroDelay || model != "zero" {
		t.Fatalf("zero-delay session labels: %q / %q", name, model)
	}
}
