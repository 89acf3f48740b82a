package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// randomSignature derives a small well-formed circuit signature from
// quick-check randomness (the shared seeded derivation benchgen's
// "random" family also uses).
func randomSignature(seed uint32) bench89.Signature {
	return bench89.RandomSignature(seed)
}

// TestPropertyEventDrivenMatchesZeroDelay is the central simulator
// property over random circuits: after an event-driven cycle the settled
// values equal a zero-delay settle of the same (pattern, state), for any
// delay model.
func TestPropertyEventDrivenMatchesZeroDelay(t *testing.T) {
	check := func(seed uint32) bool {
		sig := randomSignature(seed)
		c, err := bench89.Generate(sig)
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		rng := rand.New(rand.NewSource(int64(seed) + 1))
		zd := NewZeroDelay(c)
		ed := NewEventDriven(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()))
		w := make([]float64, c.NumNodes())
		for i := range w {
			w[i] = 1
		}
		vals := make([]bool, c.NumNodes())
		ref := make([]bool, c.NumNodes())
		pins := make([]bool, len(c.Inputs))
		q := make([]bool, len(c.Latches))
		zd.Settle(vals, pins, q)
		for cycle := 0; cycle < 25; cycle++ {
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
					t.Logf("seed %d cycle %d: node %s mismatch", seed, cycle, c.Nodes[i].Name)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyPowerNonNegativeAndBounded: every cycle's weighted
// transition sum is nonnegative and bounded by the total weight times
// a generous per-node transition cap.
func TestPropertyPowerNonNegativeAndBounded(t *testing.T) {
	check := func(seed uint32) bool {
		sig := randomSignature(seed)
		c, err := bench89.Generate(sig)
		if err != nil {
			return false
		}
		w := make([]float64, c.NumNodes())
		var totalW float64
		for i := range w {
			w[i] = 1
			totalW++
		}
		s := NewScalarSession(c, NewEventDriven(c, delay.BuildTable(c, delay.DefaultFanoutLoaded())),
			vectors.NewIID(len(c.Inputs), 0.5, int64(seed)), w)
		for cycle := 0; cycle < 50; cycle++ {
			p := s.StepSampled(nil)
			if p < 0 {
				return false
			}
			// Bound: no node can transition more than ~2*depth times in
			// a settling DAG; use a crude but safe cap.
			if p > totalW*float64(2*c.Depth()+2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyBenchRoundTrip: generated circuits survive a .bench
// write/parse round trip structurally intact.
func TestPropertyBenchRoundTrip(t *testing.T) {
	check := func(seed uint32) bool {
		sig := randomSignature(seed)
		c, err := bench89.Generate(sig)
		if err != nil {
			return false
		}
		text := netlist.BenchString(c)
		re, err := netlist.ParseBenchString(c.Name, text)
		if err != nil {
			t.Logf("seed %d: reparse: %v", seed, err)
			return false
		}
		return netlist.BenchString(re) == text && re.ComputeStats() == c.ComputeStats()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyStateTrajectoryIndependentOfSimulator: hidden (zero-delay)
// and sampled (event-driven) stepping follow identical state paths on
// random circuits.
func TestPropertyStateTrajectoryIndependentOfSimulator(t *testing.T) {
	check := func(seed uint32) bool {
		sig := randomSignature(seed)
		c, err := bench89.Generate(sig)
		if err != nil {
			return false
		}
		w := make([]float64, c.NumNodes())
		dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
		a := NewScalarSession(c, NewEventDriven(c, dt), vectors.NewIID(len(c.Inputs), 0.5, int64(seed)), w)
		b := NewScalarSession(c, NewEventDriven(c, dt), vectors.NewIID(len(c.Inputs), 0.5, int64(seed)), w)
		qa := make([]bool, len(c.Latches))
		qb := make([]bool, len(c.Latches))
		rng := rand.New(rand.NewSource(int64(seed) + 9))
		for step := 0; step < 60; step++ {
			if rng.Intn(2) == 0 {
				a.StepHidden()
			} else {
				a.StepSampled(nil)
			}
			b.StepSampled(nil)
			a.State(qa)
			b.State(qb)
			for i := range qa {
				if qa[i] != qb[i] {
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

// TestPropertyCycleCountsAdditive: session counters track exactly the
// steps taken.
func TestPropertyCycleCountsAdditive(t *testing.T) {
	check := func(h, s uint8) bool {
		c := bench89.S27()
		w := make([]float64, c.NumNodes())
		sess := NewScalarSession(c, NewEventDriven(c, delay.BuildTable(c, delay.Unit{})),
			vectors.NewIID(4, 0.5, 5), w)
		sess.StepHiddenN(int(h))
		for i := 0; i < int(s); i++ {
			sess.StepSampled(nil)
		}
		return sess.HiddenCycles == uint64(h) && sess.SampledCycles == uint64(s)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
