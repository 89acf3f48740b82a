package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/netlist"
	"repro/internal/vectors"
)

// PackedZeroDelay is the bit-parallel counterpart of ZeroDelay: every
// node value is a 64-bit word whose bit k holds the node's value in
// replication lane k, so one levelized sweep settles 64 independent
// copies of the circuit at once. Gate evaluation is pure bitwise logic
// (AND/OR/XOR/NOT and their n-ary reductions over the CSR fanin rows),
// which is the software analogue of evaluating many patterns per gate
// concurrently in hardware-accelerated power estimation. Like
// PackedSession, it is a test oracle: no estimator runs it.
type PackedZeroDelay struct {
	csr *netlist.CSR
}

// NewPackedZeroDelay builds a packed zero-delay simulator for a frozen
// circuit.
func NewPackedZeroDelay(c *netlist.Circuit) *PackedZeroDelay {
	if !c.Frozen() {
		panic("sim: NewPackedZeroDelay requires a frozen circuit")
	}
	return &PackedZeroDelay{csr: c.CSR()}
}

// Settle writes the steady-state value word of every node into vals,
// given the packed primary-input patterns pins (one word per input,
// aligned with c.Inputs) and packed latch outputs q (one word per latch,
// aligned with c.Latches). len(vals) must be c.NumNodes(). Lane k of the
// result is exactly what scalar ZeroDelay.Settle would produce for lane
// k's (pins, q).
func (z *PackedZeroDelay) Settle(vals []uint64, pins, q []uint64) {
	r := z.csr
	if len(vals) != r.NumNodes() {
		panic(fmt.Sprintf("sim: packed Settle vals length %d, want %d", len(vals), r.NumNodes()))
	}
	for i, id := range r.Inputs {
		vals[id] = pins[i]
	}
	for i, id := range r.Latches {
		vals[id] = q[i]
	}
	for _, id := range r.Const0s {
		vals[id] = 0
	}
	for _, id := range r.Const1s {
		vals[id] = ^uint64(0)
	}
	faninIdx, faninList, kinds := r.FaninIdx, r.FaninList, r.Kind
	for _, id := range r.Order {
		vals[id] = evalPacked(vals, kinds[id], faninList[faninIdx[id]:faninIdx[id+1]])
	}
}

// NextState reads the packed next latch state out of a settled value
// array into nextQ: the value word at each DFF's D pin.
func (z *PackedZeroDelay) NextState(vals []uint64, nextQ []uint64) {
	for i, d := range z.csr.LatchD {
		nextQ[i] = vals[d]
	}
}

// Outputs reads the packed primary-output values out of a settled value
// array.
func (z *PackedZeroDelay) Outputs(vals []uint64, out []uint64) {
	for i, id := range z.csr.Outputs {
		out[i] = vals[id]
	}
}

// PackedSession drives up to 64 independent replications of a sequential
// circuit through clock cycles in lock-step, one replication per word
// lane. Each lane has its own input source (fixed lane→source mapping,
// so results are reproducible and lane k is bit-for-bit identical to a
// ScalarSession over the same source). Hidden cycles advance all lanes
// with one packed sweep. Sampled cycles come in two flavours:
// StepSampled observes all 64 lanes at once with word-level zero-delay
// transition counting (as cheap as a hidden cycle plus one diff pass),
// and StepSampledWith hands each lane to a scalar power engine for
// general-delay (glitch-accurate) accounting.
//
// PackedSession is the per-lane oracle of CompiledSession, which runs
// every estimate: the differential battery checks that lane k of the
// compiled engine observes exactly what lane k of this interpreter
// does, and this interpreter in turn matches ScalarSession. Only tests
// use it (scripts/check_scalar_oracle.sh enforces that).
//
// The class invariant mirrors ScalarSession's: vals always holds the packed
// settled node values for the current (pins, q) pair.
type PackedSession struct {
	c     *netlist.Circuit
	pz    *PackedZeroDelay
	srcs  []vectors.Source
	lanes int
	mask  uint64 // bit k set iff lane k is active

	vals    []uint64 // one word per node
	oldVals []uint64 // previous settled words, for zero-delay toggle diffs
	pins    []uint64 // one word per input
	q       []uint64 // one word per latch
	nextQ   []uint64
	buf     []uint64 // next packed pattern under construction

	laneBuf []bool // one lane's pattern, as drawn from its source

	// scratch for sampled cycles: one lane in scalar representation.
	svals []bool
	spins []bool
	sq    []bool

	// counts, when installed via AccumulateToggles, receives per-node
	// transition counts summed over all active lanes of every sampled
	// cycle.
	counts []uint64

	// HiddenCycles and SampledCycles count per-replication cycles (one
	// StepHidden over L lanes adds L), so they are directly comparable
	// with the serial sessions' cost counters.
	HiddenCycles  uint64
	SampledCycles uint64
}

// NewPackedSession builds a packed session over 1..64 per-lane sources.
// Each source must have width len(c.Inputs). Every lane starts in the
// all-zero latch state with an all-zero input pattern, settled — the
// same reset state as a ScalarSession.
func NewPackedSession(c *netlist.Circuit, srcs []vectors.Source) *PackedSession {
	if len(srcs) == 0 || len(srcs) > MaxLanes {
		panic(fmt.Sprintf("sim: NewPackedSession needs 1..%d sources, got %d", MaxLanes, len(srcs)))
	}
	for k, src := range srcs {
		if src.Width() != len(c.Inputs) {
			panic(fmt.Sprintf("sim: lane %d source width %d, circuit has %d inputs",
				k, src.Width(), len(c.Inputs)))
		}
	}
	mask := ^uint64(0)
	if len(srcs) < MaxLanes {
		mask = 1<<uint(len(srcs)) - 1
	}
	s := &PackedSession{
		c:       c,
		pz:      NewPackedZeroDelay(c),
		srcs:    append([]vectors.Source(nil), srcs...),
		lanes:   len(srcs),
		mask:    mask,
		vals:    make([]uint64, c.NumNodes()),
		oldVals: make([]uint64, c.NumNodes()),
		pins:    make([]uint64, len(c.Inputs)),
		q:       make([]uint64, len(c.Latches)),
		nextQ:   make([]uint64, len(c.Latches)),
		buf:     make([]uint64, len(c.Inputs)),
		laneBuf: make([]bool, len(c.Inputs)),
		svals:   make([]bool, c.NumNodes()),
		spins:   make([]bool, len(c.Inputs)),
		sq:      make([]bool, len(c.Latches)),
	}
	s.pz.Settle(s.vals, s.pins, s.q)
	return s
}

// Circuit returns the simulated circuit.
func (s *PackedSession) Circuit() *netlist.Circuit { return s.c }

// Lanes returns the number of active replication lanes.
func (s *PackedSession) Lanes() int { return s.lanes }

// ResetCounters zeroes the cycle-cost counters.
func (s *PackedSession) ResetCounters() {
	s.HiddenCycles = 0
	s.SampledCycles = 0
}

// CycleCounts returns the cost counters, as CompiledSession.CycleCounts
// does.
func (s *PackedSession) CycleCounts() (hidden, sampled uint64) {
	return s.HiddenCycles, s.SampledCycles
}

// AccumulateToggles installs dst (len NumNodes, or nil to disable) as
// the per-node transition-count accumulator: every sampled cycle adds
// each active lane's transitions at node i into dst[i]. Zero-delay
// sampled steps count from the packed word diff (one popcount per
// node word); engine-observed steps count from the scalar engine, so
// general-delay accounting includes glitches. Accumulation never
// perturbs powers — per-lane samples stay bit-identical with and
// without it.
func (s *PackedSession) AccumulateToggles(dst []uint64) {
	if dst != nil && len(dst) != s.c.NumNodes() {
		panic(fmt.Sprintf("sim: AccumulateToggles length %d, want %d", len(dst), s.c.NumNodes()))
	}
	s.counts = dst
}

// advance computes the packed next latch state from the current settled
// values and draws every lane's next input pattern into buf.
func (s *PackedSession) advance() {
	s.pz.NextState(s.vals, s.nextQ)
	for i := range s.buf {
		s.buf[i] = 0
	}
	for k := 0; k < s.lanes; k++ {
		s.srcs[k].Next(s.laneBuf)
		bit := uint64(1) << uint(k)
		for i, v := range s.laneBuf {
			if v {
				s.buf[i] |= bit
			}
		}
	}
}

// StepHidden advances every lane one clock cycle with the packed
// zero-delay simulator. No transitions are counted.
func (s *PackedSession) StepHidden() {
	s.advance()
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	s.pz.Settle(s.vals, s.pins, s.q)
	s.HiddenCycles += uint64(s.lanes)
}

// StepHiddenN advances n cycles with StepHidden.
func (s *PackedSession) StepHiddenN(n int) {
	for i := 0; i < n; i++ {
		s.StepHidden()
	}
}

// StepSampled advances every lane one clock cycle and computes each
// lane's zero-delay power entirely at word level: the new packed state
// is settled with one 64-lane sweep, the value words are XORed against
// the previous settled words, and every set bit adds the node's weight
// to its lane's sum. powers[k] receives lane k's weighted functional
// transition sum (len(powers) >= Lanes()); glitches are excluded by
// construction. Lane k is bit-identical — including float summation
// order — to a ScalarSession with the ZeroDelayToggle engine over the
// same source, which the sim property tests assert for all 64 lanes.
//
// This makes a sampled cycle cost one packed sweep plus one diff pass,
// the same order as a hidden cycle — the zero-delay mode's sampled
// phase runs at packed-simulation throughput.
func (s *PackedSession) StepSampled(weights []float64, powers []float64) {
	if len(powers) < s.lanes {
		panic(fmt.Sprintf("sim: packed StepSampled powers length %d, want >= %d", len(powers), s.lanes))
	}
	if len(weights) != len(s.vals) {
		panic(fmt.Sprintf("sim: packed StepSampled weights length %d, want %d", len(weights), len(s.vals)))
	}
	s.advance()
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	s.vals, s.oldVals = s.oldVals, s.vals
	s.pz.Settle(s.vals, s.pins, s.q)
	s.toggleDiff(weights, powers, s.counts)
	s.SampledCycles += uint64(s.lanes)
}

// observeLanes hands every lane of the advanced-but-unapplied state
// (after advance: current settled values in vals, new pins in buf, new
// latch state in nextQ) to the scalar power engine. It is the one
// per-lane observation pass shared by StepSampledWith and
// StepSampledBoth, which keeps their powers bit-identical by
// construction.
func (s *PackedSession) observeLanes(engine PowerEngine, weights, powers []float64) {
	for k := 0; k < s.lanes; k++ {
		extractWord(k, s.svals, s.vals)
		extractWord(k, s.spins, s.buf)
		extractWord(k, s.sq, s.nextQ)
		powers[k] = engine.CyclePower(s.svals, s.spins, s.sq, weights, s.counts)
	}
}

// toggleDiff accumulates each lane's weighted zero-delay toggle sum
// from the settled word diff (vals vs oldVals). It is the one diff
// pass shared by StepSampled and StepSampledBoth, which keeps the
// toggle covariate bit-identical to the packed zero-delay power by
// construction. counts, when non-nil, additionally receives each
// node's cross-lane transition count (one popcount per node word);
// StepSampledBoth passes nil here because its counts come from the
// scalar engine, which would otherwise double-count the cycle.
func (s *PackedSession) toggleDiff(weights, powers []float64, counts []uint64) {
	for k := 0; k < s.lanes; k++ {
		powers[k] = 0
	}
	for i, w := range weights {
		// Inactive lanes are masked out: their inputs are frozen at the
		// reset pattern but latch feedback could still toggle them.
		d := (s.vals[i] ^ s.oldVals[i]) & s.mask
		if counts != nil {
			counts[i] += uint64(bits.OnesCount64(d))
		}
		for ; d != 0; d &= d - 1 {
			powers[bits.TrailingZeros64(d)] += w
		}
	}
}

// StepSampledWith advances every lane one clock cycle, observing each
// lane's transitions with the scalar power engine (which must be built
// for the same circuit) — per-lane event-driven simulation for the
// general-delay mode. powers[k] receives lane k's weighted transition
// sum (len(powers) >= Lanes()). The packed state is advanced by a
// zero-delay settle — every engine agrees with zero-delay simulation on
// settled values, so lane equivalence with ScalarSession is exact.
func (s *PackedSession) StepSampledWith(engine PowerEngine, weights []float64, powers []float64) {
	if len(powers) < s.lanes {
		panic(fmt.Sprintf("sim: packed StepSampledWith powers length %d, want >= %d", len(powers), s.lanes))
	}
	s.advance()
	s.observeLanes(engine, weights, powers)
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	s.pz.Settle(s.vals, s.pins, s.q)
	s.SampledCycles += uint64(s.lanes)
}

// StepSampledBoth advances every lane one clock cycle, observing each
// lane's transitions with the scalar power engine (exactly as
// StepSampledWith does — powers[k] is bit-identical to it) while also
// computing every lane's zero-delay toggle power at word level (exactly
// as StepSampled does — toggles[k] is bit-identical to it). The same
// cycle thus yields the general-delay sample and its functional-toggle
// covariate, which is what the control-variate transform consumes: the
// covariate costs one extra XOR diff pass, not a second simulation.
func (s *PackedSession) StepSampledBoth(engine PowerEngine, weights []float64, powers, toggles []float64) {
	if len(powers) < s.lanes || len(toggles) < s.lanes {
		panic(fmt.Sprintf("sim: packed StepSampledBoth powers/toggles lengths %d/%d, want >= %d",
			len(powers), len(toggles), s.lanes))
	}
	if len(weights) != len(s.vals) {
		panic(fmt.Sprintf("sim: packed StepSampledBoth weights length %d, want %d", len(weights), len(s.vals)))
	}
	s.advance()
	s.observeLanes(engine, weights, powers)
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	s.vals, s.oldVals = s.oldVals, s.vals
	s.pz.Settle(s.vals, s.pins, s.q)
	s.toggleDiff(weights, toggles, nil)
	s.SampledCycles += uint64(s.lanes)
}

// ExtractLane copies lane k's settled state into scalar arrays: node
// values (len NumNodes), input pattern (len #inputs) and latch state
// (len #latches). Any destination may be nil to skip it. This is the
// bridge that hands a single replication to scalar simulators.
func (s *PackedSession) ExtractLane(k int, vals, pins, q []bool) {
	if k < 0 || k >= s.lanes {
		panic(fmt.Sprintf("sim: ExtractLane %d of %d", k, s.lanes))
	}
	if vals != nil {
		extractWord(k, vals, s.vals)
	}
	if pins != nil {
		extractWord(k, pins, s.pins)
	}
	if q != nil {
		extractWord(k, q, s.q)
	}
}

// extractWord unpacks bit k of every word in src into dst.
func extractWord(k int, dst []bool, src []uint64) {
	bit := uint64(1) << uint(k)
	for i, w := range src {
		dst[i] = w&bit != 0
	}
}
