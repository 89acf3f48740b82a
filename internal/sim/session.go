package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/compile"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// pairsPerSettle is the number of sampled cycles a Session settles in
// one 64-lane Full pass: each pair takes two lanes, its old state in lane
// j and its new state in lane pairsPerSettle+j.
const pairsPerSettle = 32

// Session is one serial sequential-circuit trajectory — the substrate of
// the paper's two-phase sampling — driven through the compiled programs
// of internal/compile. Hidden cycles advance the circuit inside the
// independence interval without observing power; sampled cycles return
// the weighted transition sum of Eq. 1 under the session's delay model.
// Every sample, per-node count and cycle counter is bit-identical to a
// ScalarSession built with the same circuit, source and weights and the
// matching scalar engine: EventDriven over the session's delay table,
// or ZeroDelayToggle for a zero-delay session.
//
// Only the latch state is truly serial, and settled node values are a
// pure function of (pins, q). So every cycle advances with the Step
// program (the latch-D cone only, one lane), and a sampled cycle merely
// records its old and new (pins, q). Recorded pairs are settled
// pairsPerSettle at a time in one 64-lane Full pass:
//
//   - Zero-delay samples (no delay table) are each pair's weighted lane
//     diff, summed in node-index order — ZeroDelayToggle's own
//     summation order.
//   - General-delay samples come from one pass of the session's lane
//     engine (eventLanes, built from the delay table) over the whole
//     batch: pair j's settled old state is lane j of the Full rows, its
//     new (pins, q) lane pairsPerSettle+j shifted down. Each lane
//     replays what EventDriven computes from the arguments a
//     ScalarSession hands it.
//   - Covariates are the lane diff alongside the general-delay sample,
//     which is what ScalarSession.StepSampledPair computes.
//
// Collect settles a whole batch per pass; StepSampled settles its one
// pair at once, for callers that act between cycles (state jumps,
// waveform observers).
type Session struct {
	c       *netlist.Circuit
	unit    *compile.Unit
	src     vectors.Source
	weights []float64

	// General-delay observation: the lane engine, the delay model it
	// realizes and the observer SetObserver installed (lanes is nil for
	// zero-delay samples from the lane-pair diff).
	lanes    *eventLanes
	model    string
	observer func(id netlist.NodeID, t delay.Picoseconds, v bool)

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

	// A settle batch's new pins and latch state, shifted down onto the
	// old state's lanes, and the lane engine's sums.
	newPins []uint64
	newQ    []uint64
	sums    [64]float64
	// Each pair's transitions, held for the observer until the batch is
	// settled (only while an observer is set).
	seen [pairsPerSettle][]transition

	sample [1]float64 // StepSampled's settle destination

	// HiddenCycles and SampledCycles count the work done since the last
	// ResetCounters; they are the paper's simulation-cost metrics.
	HiddenCycles  uint64
	SampledCycles uint64
}

// NewSession builds a session over the circuit's cached compiled Unit.
// Its sampled cycles are observed event-driven under the delay table dt
// (general-delay, glitches included), or, when dt is nil, by the
// zero-delay toggle diff. weights[i] is the per-transition power
// contribution of node i (see power Model.Weights); src must have width
// len(c.Inputs). The circuit starts in the all-zero latch state with an
// all-zero input pattern.
func NewSession(c *netlist.Circuit, dt *delay.Table, src vectors.Source, weights []float64) *Session {
	if src.Width() != len(c.Inputs) {
		panic(fmt.Sprintf("sim: source width %d, circuit has %d inputs", src.Width(), len(c.Inputs)))
	}
	if len(weights) != len(c.Nodes) {
		panic(fmt.Sprintf("sim: weights length %d, circuit has %d nodes", len(weights), len(c.Nodes)))
	}
	u := compile.For(c)
	s := &Session{
		c:         c,
		unit:      u,
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
	u.Step.InitConsts(s.step, 1)
	u.Full.InitConsts(s.full, 1)
	if dt != nil {
		s.lanes, s.model = newEventLanes(newCalendar(c, dt)), dt.ModelName
		s.newPins = make([]uint64, len(c.Inputs))
		s.newQ = make([]uint64, len(c.Latches))
	}
	return s
}

// Circuit returns the simulated circuit.
func (s *Session) Circuit() *netlist.Circuit { return s.c }

// Engine names what observes the session's sampled cycles, as
// Result.Engine and Result.DelayModel record it: EngineEventDriven and
// the delay table's model name, or EngineZeroDelay and "zero" for a
// zero-delay session.
func (s *Session) Engine() (name, delayModel string) {
	if s.lanes == nil {
		return EngineZeroDelay, delay.Zero{}.Name()
	}
	return EngineEventDriven, s.model
}

// SetObserver installs (or clears, with nil) a callback that receives
// every committed transition of the sampled cycles, the t=0 source
// changes included: cycle by cycle in sample order, each cycle's calls
// in the order EventDriven's observer gets them when it runs that
// cycle. Observation slows sampling; estimation runs leave it unset. A
// zero-delay session has no timed transitions, so it panics on a
// non-nil fn.
func (s *Session) SetObserver(fn func(id netlist.NodeID, t delay.Picoseconds, v bool)) {
	if s.lanes == nil {
		if fn != nil {
			panic("sim: SetObserver needs a general-delay session; a zero-delay one has no timed transitions")
		}
		return
	}
	s.observer = fn
	if fn == nil {
		s.lanes.SetObserver(nil)
		return
	}
	s.lanes.SetObserver(func(lane int, id netlist.NodeID, t delay.Picoseconds, v bool) {
		s.seen[lane] = append(s.seen[lane], transition{id, t, v})
	})
}

// ResetCounters zeroes the cycle-cost counters.
func (s *Session) ResetCounters() {
	s.HiddenCycles = 0
	s.SampledCycles = 0
}

// SetState forces the latch state (len = #latches). Used by the
// FSM-analysis estimator, which samples states from a stationary
// distribution.
func (s *Session) SetState(q []bool) {
	for i, v := range q {
		s.q[i] = -b2u(v)
	}
}

// SetPins forces the current input pattern.
func (s *Session) SetPins(pins []bool) {
	for i, v := range pins {
		s.pins[i] = -b2u(v)
	}
}

// Values returns the settled node values of the current state, in a
// new slice indexed by NodeID.
func (s *Session) Values() []bool {
	p := s.unit.Full
	for i, r := range p.In {
		s.full[r] = s.pins[i]
	}
	for i, r := range p.Q {
		s.full[r] = s.q[i]
	}
	p.Exec(s.full, 1)
	vals := make([]bool, s.c.NumNodes())
	for i := range vals {
		vals[i] = s.full[i]&1 != 0
	}
	return vals
}

// advance moves the current state one clock cycle: the next latch state
// from the Step program, then the next input pattern from the source —
// the same draw order as ScalarSession.
func (s *Session) advance() {
	p := s.unit.Step
	for i, r := range p.In {
		s.step[r] = s.pins[i]
	}
	for i, r := range p.Q {
		s.step[r] = s.q[i]
	}
	p.Exec(s.step, 1)
	for i, d := range p.D {
		s.q[i] = s.step[d]
	}
	s.src.Next(s.pinBuf)
	for i, v := range s.pinBuf {
		s.pins[i] = -b2u(v)
	}
}

// StepHiddenN advances n cycles without observing power.
func (s *Session) StepHiddenN(n int) {
	for i := 0; i < n; i++ {
		s.advance()
	}
	s.HiddenCycles += uint64(n)
}

// record copies the current state into one lane of the settle batch.
func (s *Session) record(lane int) {
	bit := uint64(1) << uint(lane)
	for i, v := range s.pins {
		s.batchPins[i] |= v & bit
	}
	for i, v := range s.q {
		s.batchQ[i] |= v & bit
	}
}

// recordPair advances one sampled cycle, recording its old and new
// state as the next pair of the settle batch.
func (s *Session) recordPair() {
	s.record(s.pairs)
	s.advance()
	s.record(pairsPerSettle + s.pairs)
	s.pairs++
	s.SampledCycles++
}

// StepSampled advances one clock cycle, observes it under the session's
// delay model and returns the weighted transition sum: sum_i w_i * n_i,
// which equals the cycle's average power when the weights are built as
// C_i * VDD^2 / (2T) (see power Model.Weights). If counts is non-nil,
// the per-node transition counts are accumulated into it. The cycle is
// settled before StepSampled returns, so an observer (SetObserver) has
// seen its transitions; Collect is the batched form for runs of
// samples.
func (s *Session) StepSampled(counts []uint64) float64 {
	s.recordPair()
	x, _ := s.settle(s.sample[:0], nil, counts)
	return x[0]
}

// Collect appends n power samples to dst, each taken after k hidden
// cycles, and returns the extended slice. A non-nil cov also receives
// each sampled cycle's zero-delay toggle power, and a non-nil counts
// (len NumNodes) accumulates the per-node transition counts —
// ScalarSession.StepSampledPair and StepSampled semantics. The
// trajectory continues across calls exactly as one longer call would.
func (s *Session) Collect(k, n int, dst, cov []float64, counts []uint64) ([]float64, []float64) {
	for i := 0; i < n; i++ {
		s.StepHiddenN(k)
		s.recordPair()
		if s.pairs == pairsPerSettle {
			dst, cov = s.settle(dst, cov, counts)
		}
	}
	if s.pairs > 0 {
		dst, cov = s.settle(dst, cov, counts)
	}
	return dst, cov
}

// settle runs the Full program over the recorded pairs and appends
// their samples in recording order, emptying the batch.
func (s *Session) settle(dst, cov []float64, counts []uint64) ([]float64, []float64) {
	p := s.unit.Full
	for i, r := range p.In {
		s.full[r] = s.batchPins[i]
		s.batchPins[i] = 0
	}
	for i, r := range p.Q {
		s.full[r] = s.batchQ[i]
		s.batchQ[i] = 0
	}
	p.Exec(s.full, 1)
	n := s.pairs
	s.pairs = 0

	var diff [pairsPerSettle]float64
	if s.lanes == nil || cov != nil {
		// Event-driven cycles take their counts from the lane engine.
		diffCounts := counts
		if s.lanes != nil {
			diffCounts = nil
		}
		s.toggleDiff(n, &diff, diffCounts)
	}
	x := diff[:n]
	if s.lanes != nil {
		s.observe(n, counts)
		x = s.sums[:n]
	}
	dst = append(dst, x...)
	if cov != nil {
		cov = append(cov, diff[:n]...)
	}
	return dst, cov
}

// observe runs the settled batch's n pairs through the lane engine in
// one Cycle, leaving pair j's sample in sums[j]. The Full rows are the
// engine's values: the toggle diff has read them already. With an
// observer set, each pair's transitions are held until the Cycle ends
// and then handed over pair by pair.
func (s *Session) observe(n int, counts []uint64) {
	p := s.unit.Full
	for i, r := range p.In {
		s.newPins[i] = s.full[r] >> pairsPerSettle
	}
	for i, r := range p.Q {
		s.newQ[i] = s.full[r] >> pairsPerSettle
	}
	if s.observer != nil {
		for j := range s.seen {
			s.seen[j] = s.seen[j][:0]
		}
	}
	s.lanes.Cycle(s.full[:len(s.weights)], s.newPins, s.newQ, 1<<uint(n)-1, s.weights, &s.sums, counts)
	if s.observer != nil {
		for _, seen := range s.seen[:n] {
			for _, tr := range seen {
				s.observer(tr.node, tr.t, tr.v)
			}
		}
	}
}

// transition is one committed change as an observer sees it.
type transition struct {
	node netlist.NodeID
	t    delay.Picoseconds
	v    bool
}

// toggleDiff sums each of the first n pairs' toggle weights into sums,
// in node-index order, and adds each node's toggling pairs to counts
// when it is non-nil.
func (s *Session) toggleDiff(n int, sums *[pairsPerSettle]float64, counts []uint64) {
	mask := uint64(1)<<uint(n) - 1
	for i, wt := range s.weights {
		v := s.full[i]
		d := (v ^ v>>pairsPerSettle) & mask
		if counts != nil {
			counts[i] += uint64(bits.OnesCount64(d))
		}
		for ; d != 0; d &= d - 1 {
			sums[bits.TrailingZeros64(d)&(pairsPerSettle-1)] += wt
		}
	}
}
