package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/compile"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// pairsPerSettle is the number of sampled cycles a Trajectory settles in
// one 64-lane Full pass: each pair takes two lanes, its old state in lane
// j and its new state in lane pairsPerSettle+j.
const pairsPerSettle = 32

// Trajectory is one serial sequential-circuit trajectory — the single
// session of DIPE's phase 1 (warm-up and the Fig. 2 trials) — driven
// through the compiled programs of internal/compile. Its samples, cycle
// counters and per-node counts are bit-identical to a scalar Session
// built with the same circuit, engine, source and weights.
//
// Only the latch state is truly serial, and settled node values are a
// pure function of (pins, q). So every cycle advances with the Step
// program (the latch-D cone only, one lane), and a sampled cycle merely
// records its old and new (pins, q). Recorded pairs are settled
// pairsPerSettle at a time in one 64-lane Full pass:
//
//   - Zero-delay samples (a *ZeroDelayToggle engine) are each pair's
//     weighted lane diff, summed in node-index order — ZeroDelayToggle's
//     own summation order.
//   - Any other engine (the event-driven general-delay simulator) gets
//     the pair's settled old lane plus its new (pins, q), exactly the
//     arguments a Session hands it.
//   - Covariates are the lane diff alongside the engine's sample, which
//     is what Session.StepSampledPair computes.
type Trajectory struct {
	c       *netlist.Circuit
	unit    *compile.Unit
	engine  PowerEngine // nil: zero-delay samples from the lane-pair diff
	src     vectors.Source
	weights []float64

	// The current state, one word per input and latch; every bit of a
	// word holds the same value, so the Step program's output words are
	// all-zero or all-one too.
	pins []uint64
	q    []uint64

	step   []uint64 // one-word Step register file
	full   []uint64 // one-word Full register file: 64 lanes, one row per node
	pinBuf []bool

	// The settle batch under construction: pair j's old state in lane j,
	// its new state in lane pairsPerSettle+j of these rows.
	batchPins []uint64
	batchQ    []uint64
	pairs     int

	// scratch for engine observation: one lane, scalar form.
	svals []bool
	spins []bool
	sq    []bool

	// HiddenCycles and SampledCycles count exactly like Session's: k
	// hidden cycles and one sampled cycle per collected sample.
	HiddenCycles  uint64
	SampledCycles uint64
}

// NewTrajectory builds a trajectory over the circuit's cached compiled
// Unit, taking the same arguments as NewSessionEngine. The circuit
// starts in the all-zero latch state with an all-zero input pattern.
func NewTrajectory(c *netlist.Circuit, engine PowerEngine, src vectors.Source, weights []float64) *Trajectory {
	if src.Width() != len(c.Inputs) {
		panic(fmt.Sprintf("sim: source width %d, circuit has %d inputs", src.Width(), len(c.Inputs)))
	}
	if len(weights) != len(c.Nodes) {
		panic(fmt.Sprintf("sim: weights length %d, circuit has %d nodes", len(weights), len(c.Nodes)))
	}
	if engine == nil {
		panic("sim: NewTrajectory requires a power engine")
	}
	if _, zd := engine.(*ZeroDelayToggle); zd {
		engine = nil
	}
	u := compile.For(c)
	t := &Trajectory{
		c:         c,
		unit:      u,
		engine:    engine,
		src:       src,
		weights:   weights,
		pins:      make([]uint64, len(c.Inputs)),
		q:         make([]uint64, len(c.Latches)),
		step:      make([]uint64, u.Step.Slots),
		full:      make([]uint64, u.Full.Slots),
		pinBuf:    make([]bool, len(c.Inputs)),
		batchPins: make([]uint64, len(c.Inputs)),
		batchQ:    make([]uint64, len(c.Latches)),
	}
	u.Step.InitConsts(t.step, 1)
	u.Full.InitConsts(t.full, 1)
	if engine != nil {
		t.svals = make([]bool, c.NumNodes())
		t.spins = make([]bool, len(c.Inputs))
		t.sq = make([]bool, len(c.Latches))
	}
	return t
}

// Circuit returns the simulated circuit.
func (t *Trajectory) Circuit() *netlist.Circuit { return t.c }

// advance moves the current state one clock cycle: the next latch state
// from the Step program, then the next input pattern from the source —
// the same draw order as Session.
func (t *Trajectory) advance() {
	p := t.unit.Step
	for i, r := range p.In {
		t.step[r] = t.pins[i]
	}
	for i, r := range p.Q {
		t.step[r] = t.q[i]
	}
	p.Exec(t.step, 1)
	for i, d := range p.D {
		t.q[i] = t.step[d]
	}
	t.src.Next(t.pinBuf)
	for i, v := range t.pinBuf {
		t.pins[i] = -b2u(v)
	}
}

// StepHiddenN advances n cycles without observing power.
func (t *Trajectory) StepHiddenN(n int) {
	for i := 0; i < n; i++ {
		t.advance()
	}
	t.HiddenCycles += uint64(n)
}

// record copies the current state into one lane of the settle batch.
func (t *Trajectory) record(lane int) {
	bit := uint64(1) << uint(lane)
	for i, v := range t.pins {
		t.batchPins[i] |= v & bit
	}
	for i, v := range t.q {
		t.batchQ[i] |= v & bit
	}
}

// Collect appends n power samples to dst, each taken after k hidden
// cycles, and returns the extended slice. A non-nil cov also receives
// each sampled cycle's zero-delay toggle power, and a non-nil counts
// (len NumNodes) accumulates the engine's per-node transition counts —
// Session.StepSampledPair and StepSampled semantics. The trajectory
// continues across calls exactly as one longer call would.
func (t *Trajectory) Collect(k, n int, dst, cov []float64, counts []uint64) ([]float64, []float64) {
	for i := 0; i < n; i++ {
		t.StepHiddenN(k)
		t.record(t.pairs)
		t.advance()
		t.record(pairsPerSettle + t.pairs)
		t.pairs++
		t.SampledCycles++
		if t.pairs == pairsPerSettle {
			dst, cov = t.settle(dst, cov, counts)
		}
	}
	if t.pairs > 0 {
		dst, cov = t.settle(dst, cov, counts)
	}
	return dst, cov
}

// settle runs the Full program over the recorded pairs and appends
// their samples in recording order, emptying the batch.
func (t *Trajectory) settle(dst, cov []float64, counts []uint64) ([]float64, []float64) {
	p := t.unit.Full
	for i, r := range p.In {
		t.full[r] = t.batchPins[i]
		t.batchPins[i] = 0
	}
	for i, r := range p.Q {
		t.full[r] = t.batchQ[i]
		t.batchQ[i] = 0
	}
	p.Exec(t.full, 1)
	n := t.pairs
	t.pairs = 0

	var diff [pairsPerSettle]float64
	if t.engine == nil || cov != nil {
		// Engine-observed cycles take their counts from the engine.
		diffCounts := counts
		if t.engine != nil {
			diffCounts = nil
		}
		t.toggleDiff(n, &diff, diffCounts)
	}
	for j := 0; j < n; j++ {
		x := diff[j]
		if t.engine != nil {
			for i, v := range t.full {
				t.svals[i] = v>>uint(j)&1 != 0
			}
			lane := uint(pairsPerSettle + j)
			for i, r := range p.In {
				t.spins[i] = t.full[r]>>lane&1 != 0
			}
			for i, r := range p.Q {
				t.sq[i] = t.full[r]>>lane&1 != 0
			}
			x = t.engine.CyclePower(t.svals, t.spins, t.sq, t.weights, counts)
		}
		dst = append(dst, x)
		if cov != nil {
			cov = append(cov, diff[j])
		}
	}
	return dst, cov
}

// toggleDiff sums each of the first n pairs' toggle weights into sums,
// in node-index order, and adds each node's toggling pairs to counts
// when it is non-nil.
func (t *Trajectory) toggleDiff(n int, sums *[pairsPerSettle]float64, counts []uint64) {
	mask := uint64(1)<<uint(n) - 1
	for i, wt := range t.weights {
		v := t.full[i]
		d := (v ^ v>>pairsPerSettle) & mask
		if counts != nil {
			counts[i] += uint64(bits.OnesCount64(d))
		}
		for ; d != 0; d &= d - 1 {
			sums[bits.TrailingZeros64(d)&(pairsPerSettle-1)] += wt
		}
	}
}
