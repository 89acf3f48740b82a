package sim

import (
	"fmt"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// ScalarSession is the interpreted form of Session: it settles every
// cycle gate by gate with the scalar simulators, maintaining the (input
// pattern, latch state, settled node values) triple between cycles. It
// is the oracle the compiled Session, the lane-parallel sessions and the
// estimators are tested against; production code runs Session.
//
//   - StepHidden advances one cycle with the zero-delay simulator only
//     (used inside the independence interval, no power observation);
//   - StepSampled advances one cycle with the session's power engine and
//     returns the weighted transition sum of Eq. 1.
//
// The class invariant is that vals always holds settled node values for
// the current (pins, q) pair, so the two step kinds can be interleaved
// freely — every engine leaves vals settled for the new (pins, q).
type ScalarSession struct {
	c      *netlist.Circuit
	zd     *ZeroDelay
	engine PowerEngine
	src    vectors.Source

	weights []float64

	vals    []bool
	pins    []bool
	q       []bool
	nextQ   []bool
	buf     []bool
	oldVals []bool // lazily allocated by StepSampledPair

	// HiddenCycles and SampledCycles count the work done, exactly like
	// Session's.
	HiddenCycles  uint64
	SampledCycles uint64
}

// NewScalarSession builds a scalar session whose sampled cycles are
// observed by the given power engine (built for the same circuit), with
// NewSession's other arguments. Hidden cycles always run on the
// zero-delay simulator. The circuit starts in the all-zero latch state
// with an all-zero input pattern, settled.
func NewScalarSession(c *netlist.Circuit, engine PowerEngine, src vectors.Source, weights []float64) *ScalarSession {
	if src.Width() != len(c.Inputs) {
		panic(fmt.Sprintf("sim: source width %d, circuit has %d inputs", src.Width(), len(c.Inputs)))
	}
	if len(weights) != len(c.Nodes) {
		panic(fmt.Sprintf("sim: weights length %d, circuit has %d nodes", len(weights), len(c.Nodes)))
	}
	if engine == nil {
		panic("sim: NewScalarSession requires a power engine")
	}
	s := &ScalarSession{
		c:       c,
		zd:      NewZeroDelay(c),
		engine:  engine,
		src:     src,
		weights: weights,
		vals:    make([]bool, len(c.Nodes)),
		pins:    make([]bool, len(c.Inputs)),
		q:       make([]bool, len(c.Latches)),
		nextQ:   make([]bool, len(c.Latches)),
		buf:     make([]bool, len(c.Inputs)),
	}
	s.zd.Settle(s.vals, s.pins, s.q)
	return s
}

// Circuit returns the simulated circuit.
func (s *ScalarSession) Circuit() *netlist.Circuit { return s.c }

// Reset returns the circuit to the all-zero reset state and re-settles.
// Cycle counters are preserved; use ResetCounters to clear them.
func (s *ScalarSession) Reset() {
	for i := range s.pins {
		s.pins[i] = false
	}
	for i := range s.q {
		s.q[i] = false
	}
	s.zd.Settle(s.vals, s.pins, s.q)
}

// advance computes the next latch state from the current settled values
// and draws the next input pattern; it returns them without applying.
func (s *ScalarSession) advance() {
	s.zd.NextState(s.vals, s.nextQ)
	s.src.Next(s.buf)
}

// StepHidden advances one clock cycle using the zero-delay simulator.
// No transitions are counted.
func (s *ScalarSession) StepHidden() {
	s.advance()
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	s.zd.Settle(s.vals, s.pins, s.q)
	s.HiddenCycles++
}

// StepHiddenN advances n cycles with StepHidden.
func (s *ScalarSession) StepHiddenN(n int) {
	for i := 0; i < n; i++ {
		s.StepHidden()
	}
}

// StepSampled advances one clock cycle using the session's power engine
// and returns the weighted transition sum for the cycle: sum_i w_i * n_i,
// which equals the cycle's average power when the weights are built as
// C_i * VDD^2 / (2T) (see power Model.Weights). If counts is non-nil, the
// per-node transition counts are accumulated into it.
func (s *ScalarSession) StepSampled(counts []uint64) float64 {
	s.advance()
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	p := s.engine.CyclePower(s.vals, s.pins, s.q, s.weights, counts)
	s.SampledCycles++
	return p
}

// StepSampledPair advances one clock cycle like StepSampled, returning
// both the engine's weighted transition sum x and the same cycle's
// zero-delay toggle power c (the weights of every node whose settled
// value changed, summed in node-index order). Every engine leaves vals
// zero-delay settled, so c is bit-identical to what the ZeroDelayToggle
// engine — and lane-for-lane the packed sampled step — would report for
// the cycle, and the session trajectory and x are bit-identical to a
// plain StepSampled. The pair is the calibration substrate of the
// control-variate transform (internal/vr): x is the sample, c the
// covariate. If counts is non-nil the engine's per-node transition
// counts are accumulated into it, exactly as in StepSampled.
func (s *ScalarSession) StepSampledPair(counts []uint64) (x, c float64) {
	if s.oldVals == nil {
		s.oldVals = make([]bool, len(s.vals))
	}
	copy(s.oldVals, s.vals)
	s.advance()
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	x = s.engine.CyclePower(s.vals, s.pins, s.q, s.weights, counts)
	for i, v := range s.vals {
		if v != s.oldVals[i] {
			c += s.weights[i]
		}
	}
	s.SampledCycles++
	return x, c
}

// Collect appends n power samples to dst, each taken after k hidden
// cycles (StepHiddenN then StepSampled), and returns the extended slice.
// A non-nil cov switches the sampled step to StepSampledPair and also
// receives each cycle's zero-delay toggle power; counts is passed to
// the sampled step. Session.Collect is the compiled counterpart.
func (s *ScalarSession) Collect(k, n int, dst, cov []float64, counts []uint64) ([]float64, []float64) {
	for i := 0; i < n; i++ {
		s.StepHiddenN(k)
		if cov != nil {
			x, c := s.StepSampledPair(counts)
			dst = append(dst, x)
			cov = append(cov, c)
		} else {
			dst = append(dst, s.StepSampled(counts))
		}
	}
	return dst, cov
}

// Engine returns the session's power engine.
func (s *ScalarSession) Engine() PowerEngine { return s.engine }

// eventDriven returns the underlying event-driven simulator if that is
// the session's engine, else nil.
func (s *ScalarSession) eventDriven() *EventDriven {
	ed, _ := s.engine.(*EventDriven)
	return ed
}

// SettleTime returns the simulated settling time of the most recent
// sampled cycle (0 unless the engine is event-driven).
func (s *ScalarSession) SettleTime() delay.Picoseconds {
	if ed := s.eventDriven(); ed != nil {
		return ed.LastSettleTime
	}
	return 0
}

// Events returns the applied event count of the most recent sampled
// cycle (0 unless the engine is event-driven).
func (s *ScalarSession) Events() uint64 {
	if ed := s.eventDriven(); ed != nil {
		return ed.LastEvents
	}
	return 0
}

// State copies the current latch state into dst (len = #latches).
func (s *ScalarSession) State(dst []bool) { copy(dst, s.q) }

// SetState forces the latch state (len = #latches) and re-settles with
// the current input pattern. Used by the FSM-analysis estimator, which
// samples states from a stationary distribution.
func (s *ScalarSession) SetState(q []bool) {
	copy(s.q, q)
	s.zd.Settle(s.vals, s.pins, s.q)
}

// SetPins forces the current input pattern and re-settles.
func (s *ScalarSession) SetPins(pins []bool) {
	copy(s.pins, pins)
	s.zd.Settle(s.vals, s.pins, s.q)
}

// Values returns the settled value array (live; callers must not modify).
func (s *ScalarSession) Values() []bool { return s.vals }
