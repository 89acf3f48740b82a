package markov

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/netlist"
	"repro/internal/sim"
)

// MaxExactLatches bounds STG extraction: beyond 2^20 states the dense
// state indexing used here is pointless, which is exactly the paper's
// scalability point.
const MaxExactLatches = 20

// MaxExactInputs bounds exact input-pattern enumeration per state.
const MaxExactInputs = 16

// STG is a state transition graph with transition probabilities under a
// given primary-input distribution. States are latch-vector encodings
// (bit i of the key is latch i), restricted to the set reachable from
// the reset (all-zero) state.
type STG struct {
	Latches int
	// States maps the dense index to the latch-vector key.
	States []uint64
	// Index is the inverse of States.
	Index map[uint64]int
	// Rows holds, per state, the sparse outgoing transition distribution.
	Rows []map[int]float64
}

// NumStates returns the number of reachable states.
func (g *STG) NumStates() int { return len(g.States) }

// Extract enumerates the reachable STG of a circuit whose inputs are
// mutually independent Bernoulli(p[i]) variables, by exact enumeration of
// all 2^#PI input patterns from every reachable state. It fails when the
// circuit exceeds MaxExactLatches/MaxExactInputs — deliberately mirroring
// the complexity wall the paper describes.
func Extract(c *netlist.Circuit, p []float64) (*STG, error) {
	nl := len(c.Latches)
	ni := len(c.Inputs)
	if nl > MaxExactLatches {
		return nil, fmt.Errorf("markov: %s has %d latches; exact STG extraction capped at %d (state space 2^%d)",
			c.Name, nl, MaxExactLatches, nl)
	}
	if ni > MaxExactInputs {
		return nil, fmt.Errorf("markov: %s has %d inputs; exact pattern enumeration capped at %d",
			c.Name, ni, MaxExactInputs)
	}
	if len(p) != ni {
		return nil, fmt.Errorf("markov: probability vector has %d entries, circuit has %d inputs", len(p), ni)
	}
	zd := sim.NewZeroDelay(c)
	vals := make([]bool, c.NumNodes())
	pins := make([]bool, ni)
	q := make([]bool, nl)
	nq := make([]bool, nl)

	g := &STG{Latches: nl, Index: make(map[uint64]int)}
	addState := func(key uint64) int {
		if i, ok := g.Index[key]; ok {
			return i
		}
		i := len(g.States)
		g.States = append(g.States, key)
		g.Index[key] = i
		g.Rows = append(g.Rows, make(map[int]float64))
		return i
	}

	nPatterns := 1 << ni
	patProb := make([]float64, nPatterns)
	for m := 0; m < nPatterns; m++ {
		pr := 1.0
		for b := 0; b < ni; b++ {
			if m&(1<<b) != 0 {
				pr *= p[b]
			} else {
				pr *= 1 - p[b]
			}
		}
		patProb[m] = pr
	}

	work := []int{addState(0)}
	visited := map[int]bool{0: true}
	for len(work) > 0 {
		si := work[len(work)-1]
		work = work[:len(work)-1]
		key := g.States[si]
		for b := 0; b < nl; b++ {
			q[b] = key&(1<<b) != 0
		}
		for m := 0; m < nPatterns; m++ {
			if patProb[m] == 0 {
				continue
			}
			for b := 0; b < ni; b++ {
				pins[b] = m&(1<<b) != 0
			}
			zd.Settle(vals, pins, q)
			zd.NextState(vals, nq)
			var nkey uint64
			for b := 0; b < nl; b++ {
				if nq[b] {
					nkey |= 1 << b
				}
			}
			ti := addState(nkey)
			g.Rows[si][ti] += patProb[m]
			if !visited[ti] {
				visited[ti] = true
				work = append(work, ti)
			}
		}
	}
	return g, nil
}

// Stationary solves the Chapman–Kolmogorov equations pi = pi * P by power
// iteration from the uniform distribution over reachable states, to the
// given L1 tolerance. It returns the stationary distribution over
// g.States. Periodic chains are handled by averaging successive iterates
// (a lazy-chain transform with weight 1/2).
func (g *STG) Stationary(tol float64, maxIter int) ([]float64, error) {
	n := g.NumStates()
	if n == 0 {
		return nil, fmt.Errorf("markov: empty STG")
	}
	pi := make([]float64, n)
	next := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	for it := 0; it < maxIter; it++ {
		for i := range next {
			next[i] = 0
		}
		for si, row := range g.Rows {
			for ti, pr := range row {
				next[ti] += pi[si] * pr
			}
		}
		// Lazy step: average with the current iterate to kill periodicity.
		var diff float64
		for i := range next {
			next[i] = 0.5*next[i] + 0.5*pi[i]
			diff += math.Abs(next[i] - pi[i])
		}
		pi, next = next, pi
		if diff < tol {
			return pi, nil
		}
	}
	return nil, fmt.Errorf("markov: power iteration did not reach tol %g in %d iterations", tol, maxIter)
}

// MixingTime returns the smallest number of steps k such that the total
// variation distance between the k-step distribution started at the reset
// state and the stationary distribution drops below tol. This is the
// principled "warm-up period" the paper says is unknowable without the
// STG.
func (g *STG) MixingTime(stationary []float64, tol float64, maxSteps int) (int, error) {
	n := g.NumStates()
	p := make([]float64, n)
	next := make([]float64, n)
	p[0] = 1 // reset state is state 0 by construction
	for k := 0; k <= maxSteps; k++ {
		var tv float64
		for i := range p {
			tv += math.Abs(p[i] - stationary[i])
		}
		if tv/2 < tol {
			return k, nil
		}
		for i := range next {
			next[i] = 0
		}
		for si, row := range g.Rows {
			if p[si] == 0 {
				continue
			}
			for ti, pr := range row {
				next[ti] += p[si] * pr
			}
		}
		p, next = next, p
	}
	return 0, fmt.Errorf("markov: TV distance still above %g after %d steps", tol, maxSteps)
}

// SampleState draws a state (latch vector) from a distribution over
// g.States, writing it to q.
func (g *STG) SampleState(dist []float64, rng *rand.Rand, q []bool) {
	u := rng.Float64()
	acc := 0.0
	idx := len(dist) - 1
	for i, pr := range dist {
		acc += pr
		if u < acc {
			idx = i
			break
		}
	}
	key := g.States[idx]
	for b := 0; b < g.Latches; b++ {
		q[b] = key&(1<<b) != 0
	}
}
