package sim

import (
	"fmt"

	"repro/internal/netlist"
)

// PowerEngine observes the power dissipated in one clock cycle of a
// scalar simulation: CyclePower applies a new (input pattern, latch
// state) pair to a settled value array, advances it to the next settled
// state, and returns the weighted transition sum of Eq. 1 for whatever
// transition accounting the engine implements.
//
// It is the seam of the interpreted oracles: ScalarSession observes its
// sampled cycles with one, and PackedSession hands it each lane in turn.
// Two engines ship with the package: *EventDriven (general-delay,
// glitches included — the paper's configuration) and *ZeroDelayToggle
// (functional transitions only). They are the oracles of the compiled
// sessions' observation, which those build from their delay table
// instead: the lane engine eventLanes is EventDriven on lane words, and
// a zero-delay session's toggle diff is ZeroDelayToggle on them. Only
// tests, ScalarSession and PackedSession call CyclePower, and only
// tests and EventDriven's own CyclePower call EventDriven.Cycle.
//
// The engine contract mirrors EventDriven.Cycle: on entry vals holds
// the settled values of the previous (pattern, state) pair; on return
// it holds the settled values of (newPins, newQ) — identical across
// engines, which is what lets sessions interleave hidden and sampled
// steps with any engine.
type PowerEngine interface {
	// CyclePower simulates one clock cycle and returns the weighted
	// transition sum. weights[i] is the power contribution of one
	// transition at node i; if counts is non-nil, counts[i] is
	// incremented once per transition at node i. The accumulators are
	// uint64: a long fixed-interval run on a 100k-gate circuit can push a
	// high-activity node past 2^32 transitions, which a narrower counter
	// would wrap silently.
	CyclePower(vals []bool, newPins, newQ []bool, weights []float64, counts []uint64) float64
}

// EngineEventDriven and EngineZeroDelay are the engine labels a
// Session reports (Session.Engine) for general-delay and zero-delay
// observation.
const (
	EngineEventDriven = "event-driven"
	EngineZeroDelay   = "zero-delay"
	// EngineCompiledZeroDelay is reported when the sampled cycles of a
	// parallel run are observed word-parallel by the toggle diff of a
	// zero-delay CompiledSession.
	EngineCompiledZeroDelay = "compiled-zero-delay"
)

// ZeroDelayToggle is the zero-delay power engine: one levelized settle
// for the new (pattern, state) pair, then a toggle count against the
// previous settled values. Every node contributes at most one
// transition per cycle — the functional transition count, with glitch
// power excluded by construction. It is the scalar reference semantics
// for the lane sessions' StepSampled: lane k of a compiled (or packed
// oracle) sampled step is bit-identical, float summation order
// included, to this engine.
type ZeroDelayToggle struct {
	zd      *ZeroDelay
	scratch []bool
}

// NewZeroDelayToggle builds a zero-delay power engine for a frozen
// circuit.
func NewZeroDelayToggle(c *netlist.Circuit) *ZeroDelayToggle {
	return &ZeroDelayToggle{
		zd:      NewZeroDelay(c),
		scratch: make([]bool, c.NumNodes()),
	}
}

// CyclePower implements PowerEngine: settle (newPins, newQ) and sum the
// weights of every node whose settled value changed. The sum runs in
// node-index order — the same order the lane sessions' sampled steps
// use, so they agree bit-for-bit.
func (e *ZeroDelayToggle) CyclePower(vals []bool, newPins, newQ []bool, weights []float64, counts []uint64) float64 {
	if len(vals) != len(e.scratch) {
		panic(fmt.Sprintf("sim: ZeroDelayToggle vals length %d, want %d", len(vals), len(e.scratch)))
	}
	e.zd.Settle(e.scratch, newPins, newQ)
	sum := 0.0
	for i, v := range e.scratch {
		if v != vals[i] {
			sum += weights[i]
			if counts != nil {
				counts[i]++
			}
		}
	}
	copy(vals, e.scratch)
	return sum
}
