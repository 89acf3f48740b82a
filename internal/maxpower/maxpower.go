package maxpower

import (
	"fmt"
	"math/rand"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Options configures a search.
type Options struct {
	// Budget is the total number of simulated cycles the search may
	// spend.
	Budget int
	// Restarts is the number of random restarts for HillClimb (the
	// budget is shared across restarts).
	Restarts int
	// Seed makes the search reproducible.
	Seed int64
}

// DefaultOptions returns a budget adequate for benchmark circuits.
func DefaultOptions() Options {
	return Options{Budget: 4096, Restarts: 8, Seed: 1}
}

// Validate checks the options.
func (o Options) Validate() error {
	if o.Budget < 1 {
		return fmt.Errorf("maxpower: budget %d must be >= 1", o.Budget)
	}
	if o.Restarts < 1 {
		return fmt.Errorf("maxpower: restarts %d must be >= 1", o.Restarts)
	}
	return nil
}

// Result is the best cycle found.
type Result struct {
	// Power is the peak single-cycle power found, in the weights' unit
	// (watts with power.Model weights).
	Power float64
	// State, V1, V2 reproduce the peak cycle: the circuit in state
	// State with pattern V1 applied and settled, then switched to
	// pattern V2 (with the captured next state).
	State []bool
	V1    []bool
	V2    []bool
	// Cycles is the number of simulated cycles spent.
	Cycles int
}

// evaluator observes candidate cycles on the compiled session the
// estimators run, event-driven under the delay table.
type evaluator struct {
	s      *sim.Session
	v2     pattern
	cycles int
}

func newEvaluator(c *netlist.Circuit, dt *delay.Table, weights []float64) *evaluator {
	e := &evaluator{v2: make(pattern, len(c.Inputs))}
	e.s = sim.NewSession(c, dt, e.v2, weights)
	return e
}

// eval returns the power of the cycle (v1, s1) -> (v2, delta(v1,s1)):
// the session settles (v1, s1), steps to delta(v1, s1) and draws v2
// from its source, then observes the cycle.
func (e *evaluator) eval(s1, v1, v2 []bool) float64 {
	copy(e.v2, v2)
	e.s.SetState(s1)
	e.s.SetPins(v1)
	e.cycles++
	return e.s.StepSampled(nil)
}

// pattern is the evaluator session's input source: every draw is the
// pattern itself, which eval sets to the candidate's V2.
type pattern []bool

func (p pattern) Next(dst []bool) { copy(dst, p) }
func (p pattern) Width() int      { return len(p) }
func (p pattern) Name() string    { return "maxpower-v2" }

// candidate is one point of the search space.
type candidate struct {
	s1, v1, v2 []bool
}

func newCandidate(c *netlist.Circuit) candidate {
	return candidate{
		s1: make([]bool, len(c.Latches)),
		v1: make([]bool, len(c.Inputs)),
		v2: make([]bool, len(c.Inputs)),
	}
}

func (cd *candidate) randomize(rng *rand.Rand) {
	for i := range cd.s1 {
		cd.s1[i] = rng.Intn(2) == 1
	}
	for i := range cd.v1 {
		cd.v1[i] = rng.Intn(2) == 1
	}
	for i := range cd.v2 {
		cd.v2[i] = rng.Intn(2) == 1
	}
}

func (cd *candidate) copyFrom(o candidate) {
	copy(cd.s1, o.s1)
	copy(cd.v1, o.v1)
	copy(cd.v2, o.v2)
}

// bit addresses one flippable bit across the three vectors.
func (cd *candidate) flip(i int) {
	switch {
	case i < len(cd.s1):
		cd.s1[i] = !cd.s1[i]
	case i < len(cd.s1)+len(cd.v1):
		cd.v1[i-len(cd.s1)] = !cd.v1[i-len(cd.s1)]
	default:
		cd.v2[i-len(cd.s1)-len(cd.v1)] = !cd.v2[i-len(cd.s1)-len(cd.v1)]
	}
}

func (cd *candidate) bits() int { return len(cd.s1) + len(cd.v1) + len(cd.v2) }

// RandomSearch returns the best of Budget random cycles.
func RandomSearch(c *netlist.Circuit, dt *delay.Table, weights []float64, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	ev := newEvaluator(c, dt, weights)
	cur := newCandidate(c)
	best := newCandidate(c)
	bestP := -1.0
	for ev.cycles < opts.Budget {
		cur.randomize(rng)
		if p := ev.eval(cur.s1, cur.v1, cur.v2); p > bestP {
			bestP = p
			best.copyFrom(cur)
		}
	}
	return Result{Power: bestP, State: best.s1, V1: best.v1, V2: best.v2, Cycles: ev.cycles}, nil
}

// HillClimb performs first-improvement bit-flip local search with random
// restarts, sharing the cycle budget across restarts.
func HillClimb(c *netlist.Circuit, dt *delay.Table, weights []float64, opts Options) (Result, error) {
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	ev := newEvaluator(c, dt, weights)
	cur := newCandidate(c)
	best := newCandidate(c)
	bestP := -1.0
	nbits := cur.bits()
	order := rng.Perm(nbits)

	for restart := 0; restart < opts.Restarts && ev.cycles < opts.Budget; restart++ {
		cur.randomize(rng)
		curP := ev.eval(cur.s1, cur.v1, cur.v2)
		improved := true
		for improved && ev.cycles < opts.Budget {
			improved = false
			rng.Shuffle(nbits, func(i, j int) { order[i], order[j] = order[j], order[i] })
			for _, b := range order {
				if ev.cycles >= opts.Budget {
					break
				}
				cur.flip(b)
				if p := ev.eval(cur.s1, cur.v1, cur.v2); p > curP {
					curP = p
					improved = true
				} else {
					cur.flip(b) // revert
				}
			}
		}
		if curP > bestP {
			bestP = curP
			best.copyFrom(cur)
		}
	}
	return Result{Power: bestP, State: best.s1, V1: best.v1, V2: best.v2, Cycles: ev.cycles}, nil
}
