package sim

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// maxBuckets caps the calendar ring of an EventDriven simulator. A delay
// table whose span is more than maxBuckets-1 quanta gets buckets several
// ticks wide instead of a longer ring.
const maxBuckets = 4096

// EventDriven is a gate-level event-driven timing simulator with inertial
// delays. Given a circuit settled for the previous cycle's inputs and
// state, Cycle applies the new input pattern and new latch outputs
// simultaneously at t=0 and propagates events until quiescence, counting
// every output transition — functional transitions and glitches alike.
// This is the "general-delay circuit simulator" of the paper's two-phase
// sampling scheme.
//
// Inertial semantics: a gate re-evaluation schedules its new output value
// after the gate delay; a re-evaluation that returns the gate to its
// current value cancels any pending change (pulse filtering). At most one
// change per node is pending at any time.
//
// Events are committed in (time, logic level, scheduling order). The
// level tiebreak makes zero-delay (and equal-delay) event processing
// behave like a levelized sweep, so delta-cycle artifacts cannot
// masquerade as glitches: an upstream same-time change always lands
// before a downstream gate commits, letting inertial cancellation absorb
// it.
//
// The event queue is a calendar queue. Time runs in ticks of the
// quantum, the gcd of the nonzero gate delays (20 ps under
// delay.DefaultFanoutLoaded), so every event time is a whole tick. A
// ring of buckets one tick wide, one more than the largest delay in
// ticks, holds every pending event: none is more than the largest delay
// ahead of the current time, so no two pending times share a bucket. A
// table spanning more than maxBuckets-1 ticks gets buckets a
// power-of-two number of ticks wide instead, and the earliest time is
// taken out of a bucket first. A queued event is just (node,
// generation): its time is the node's pending record, its level
// csr.Level.
//
// The commit order is exactly (time, level, scheduling order):
//
//   - Time: buckets are visited in ring order, and within a bucket the
//     earliest pending time is taken first.
//   - Level: the events of the current time are filed into one list per
//     logic level and committed from the lowest level up. A commit at
//     time t schedules its fanout gates either later, or at t when a
//     gate has zero delay; such a gate is on a strictly higher level
//     (levels are longest paths from the sources), so it joins a list
//     not yet reached.
//   - Scheduling order: buckets and level lists are appended to and
//     filed from in scheduling order, and nothing reorders them.
//
// Superseded and cancelled events stay queued and are skipped when their
// generation no longer matches the node's.
//
// The fanout walk and gate re-evaluation run over the circuit's CSR view
// (flat kind/level/fanin/fanout arrays).
type EventDriven struct {
	csr       *netlist.CSR
	modelName string

	quantum delay.Picoseconds // picoseconds per tick
	ticks   []int64           // per-node delay in ticks

	// ring[s] holds the events of bucket n for the one n ≡ s (mod
	// len(ring)) within a delay of the current time; bucket n covers
	// ticks [n<<shift, (n+1)<<shift). queued counts the events in the
	// ring, stale ones included.
	ring   [][]qevent
	shift  uint
	queued int

	// The time being committed (curT, in ticks), its bucket number and
	// its ring slot.
	curT    int64
	curN    int64
	curSlot int

	// byLevel[l] lists the events at curT on logic level l in scheduling
	// order; bit l of the occupied bitmap marks a non-empty list.
	byLevel  [][]qevent
	occupied []uint64

	pending []pendingChange
	busy    bool // inside Cycle; still set on entry after an aborted one

	// LastSettleTime is the simulated time at which the previous Cycle
	// quiesced; callers can check it against the clock period.
	LastSettleTime delay.Picoseconds
	// LastEvents is the number of applied (non-stale) events in the
	// previous Cycle, a machine-independent cost metric.
	LastEvents uint64

	// observer, when set, receives every committed transition (including
	// the t=0 source changes). Used by waveform dumpers; nil in normal
	// estimation runs.
	observer func(id netlist.NodeID, t delay.Picoseconds, v bool)
}

// qevent is a queued change of node; it is stale unless the node's
// pending change is active with the same generation.
type qevent struct {
	node int32
	gen  uint32
}

// pendingChange is a node's scheduled output change.
type pendingChange struct {
	t      int64 // commit time, ticks
	gen    uint32
	val    bool
	active bool
}

// NewEventDriven builds an event-driven simulator for a frozen circuit
// under a delay table. Gate delays must be non-negative.
func NewEventDriven(c *netlist.Circuit, dt *delay.Table) *EventDriven {
	if !c.Frozen() {
		panic("sim: NewEventDriven requires a frozen circuit")
	}
	if len(dt.Delays) != len(c.Nodes) {
		panic(fmt.Sprintf("sim: delay table has %d entries, circuit has %d nodes",
			len(dt.Delays), len(c.Nodes)))
	}
	// Only gates are ever scheduled, so only their delays shape the ring.
	var quantum, span delay.Picoseconds
	for i, d := range dt.Delays {
		if !c.Nodes[i].Kind.IsCombinational() {
			continue
		}
		if d < 0 {
			panic(fmt.Sprintf("sim: gate %q has negative delay %d ps", c.Nodes[i].Name, d))
		}
		quantum = gcd(quantum, d)
		span = max(span, d)
	}
	if quantum == 0 {
		quantum = 1 // all-zero table: every event is at t=0
	}
	ticks := make([]int64, len(dt.Delays))
	for i, d := range dt.Delays {
		ticks[i] = int64(d / quantum)
	}
	// A push lands at most ceil(span/width) buckets past the current
	// one, so that many plus one slots never alias.
	var shift uint
	buckets := func() int64 { return (int64(span/quantum)+1<<shift-1)>>shift + 1 }
	for buckets() > maxBuckets {
		shift++
	}
	r := c.CSR()
	var depth int32
	for _, l := range r.Level {
		depth = max(depth, l)
	}
	return &EventDriven{
		csr:       r,
		modelName: dt.ModelName,
		quantum:   quantum,
		ticks:     ticks,
		ring:      make([][]qevent, buckets()),
		shift:     shift,
		byLevel:   make([][]qevent, depth+1),
		occupied:  make([]uint64, depth/64+1),
		pending:   make([]pendingChange, len(c.Nodes)),
	}
}

func gcd(a, b delay.Picoseconds) delay.Picoseconds {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Cycle simulates one clock cycle. On entry vals must hold the settled
// values for the previous (pattern, state) pair; on return vals holds the
// settled values for (newPins, newQ).
//
// weights[i] is the power contribution of one transition at node i (zero
// to exclude a node, e.g. primary inputs whose transitions are paid by
// the external driver). The weighted sum over all transitions is
// returned. If counts is non-nil, counts[i] is incremented once per
// transition at node i (it is not cleared first, so callers can
// accumulate energy breakdowns over many cycles).
func (e *EventDriven) Cycle(vals []bool, newPins, newQ []bool, weights []float64, counts []uint64) float64 {
	r := e.csr
	if e.busy {
		e.reset() // the previous Cycle was aborted and left events behind
	}
	e.busy = true
	e.curT, e.curN, e.curSlot = 0, 0, 0
	sum := 0.0
	e.LastEvents = 0
	e.LastSettleTime = 0

	// Apply simultaneous source changes at t=0: the clock edge updates
	// latch outputs while the environment presents the next pattern.
	for i, id := range r.Inputs {
		if vals[id] != newPins[i] {
			vals[id] = newPins[i]
			sum += weights[id]
			if counts != nil {
				counts[id]++
			}
			if e.observer != nil {
				e.observer(netlist.NodeID(id), 0, vals[id])
			}
			e.LastEvents++
			e.fanoutEval(id, vals)
		}
	}
	for i, id := range r.Latches {
		if vals[id] != newQ[i] {
			vals[id] = newQ[i]
			sum += weights[id]
			if counts != nil {
				counts[id]++
			}
			if e.observer != nil {
				e.observer(netlist.NodeID(id), 0, vals[id])
			}
			e.LastEvents++
			e.fanoutEval(id, vals)
		}
	}

	// Propagate to quiescence, one time at a time.
	for {
		t := delay.Picoseconds(e.curT) * e.quantum
		// Commits only add to higher levels, so one upward scan of the
		// bitmap visits every non-empty list.
		for w := range e.occupied {
			for e.occupied[w] != 0 {
				l := w<<6 | bits.TrailingZeros64(e.occupied[w])
				e.occupied[w] &^= 1 << (l & 63)
				events := e.byLevel[l]
				for _, ev := range events {
					id := ev.node
					p := &e.pending[id]
					if !p.active || p.gen != ev.gen {
						continue // cancelled or superseded
					}
					p.active = false
					vals[id] = p.val
					sum += weights[id]
					if counts != nil {
						counts[id]++
					}
					if e.observer != nil {
						e.observer(netlist.NodeID(id), t, p.val)
					}
					e.LastEvents++
					e.LastSettleTime = t
					e.fanoutEval(id, vals)
				}
				e.byLevel[l] = events[:0]
			}
		}
		if e.queued == 0 {
			e.busy = false
			return sum
		}
		e.advance()
	}
}

// CyclePower implements PowerEngine; it is Cycle under the interface's
// name.
func (e *EventDriven) CyclePower(vals []bool, newPins, newQ []bool, weights []float64, counts []uint64) float64 {
	return e.Cycle(vals, newPins, newQ, weights, counts)
}

// Name implements PowerEngine.
func (e *EventDriven) Name() string { return EngineEventDriven }

// DelayModelName implements PowerEngine: the name of the delay model the
// simulator's table was built from.
func (e *EventDriven) DelayModelName() string { return e.modelName }

// SetObserver installs (or clears, with nil) a callback invoked for
// every committed transition during subsequent Cycles. Observation slows
// simulation; estimation runs leave it unset.
func (e *EventDriven) SetObserver(fn func(id netlist.NodeID, t delay.Picoseconds, v bool)) {
	e.observer = fn
}

// fanoutEval re-evaluates every combinational gate driven by id at the
// current time. It walks the CSR gate-fanout row of the node
// (non-combinational sinks — DFF D pins — are excluded at Freeze time).
func (e *EventDriven) fanoutEval(id int32, vals []bool) {
	r := e.csr
	for _, g := range r.GateFanoutList[r.GateFanoutIdx[id]:r.GateFanoutIdx[id+1]] {
		newv := evalCSR(vals, r.Kind[g], r.FaninList[r.FaninIdx[g]:r.FaninIdx[g+1]])
		p := &e.pending[g]
		if p.active {
			if p.val == newv {
				continue // already scheduled to the right value
			}
			// Inertial cancellation of the pending (now wrong) change.
			p.gen++
			p.active = false
		}
		if newv == vals[g] {
			continue
		}
		p.gen++
		p.t, p.val, p.active = e.curT+e.ticks[g], newv, true
		// A zero-delay gate's change joins the current time's level
		// lists; any other goes to the back of its time's bucket.
		ev := qevent{node: g, gen: p.gen}
		if p.t == e.curT {
			e.file(ev)
			continue
		}
		s := e.curSlot + int(p.t>>e.shift-e.curN)
		if s >= len(e.ring) {
			s -= len(e.ring)
		}
		e.ring[s] = append(e.ring[s], ev)
		e.queued++
	}
}

// file appends an event at the current time to its level's list.
func (e *EventDriven) file(ev qevent) {
	l := e.csr.Level[ev.node]
	e.byLevel[l] = append(e.byLevel[l], ev)
	e.occupied[l>>6] |= 1 << (l & 63)
}

// advance moves the current time to the earliest pending change and
// files that time's events into byLevel, in scheduling order. Stale
// events met on the way are dropped. If only stale events were left,
// the ring ends empty and nothing is filed.
func (e *EventDriven) advance() {
	for {
		if b := e.ring[e.curSlot]; len(b) > 0 {
			live, first := 0, int64(math.MaxInt64)
			for _, ev := range b {
				p := &e.pending[ev.node]
				if p.active && p.gen == ev.gen {
					first = min(first, p.t)
					b[live] = ev
					live++
				}
			}
			e.queued -= len(b) - live
			b = b[:live]
			if live > 0 {
				// One tick per bucket (the common case) files the whole
				// bucket; a wider bucket keeps its later times in order.
				e.curT = first
				rest := 0
				for _, ev := range b {
					if e.pending[ev.node].t == first {
						e.file(ev)
					} else {
						b[rest] = ev
						rest++
					}
				}
				e.queued -= live - rest
				e.ring[e.curSlot] = b[:rest]
				return
			}
			e.ring[e.curSlot] = b
			if e.queued == 0 {
				return
			}
		}
		e.curN++
		if e.curSlot++; e.curSlot == len(e.ring) {
			e.curSlot = 0
		}
	}
}

// reset empties the queue after an aborted Cycle, cancelling every change
// still pending so none leaks into the next Cycle. Every active pending
// change has its event somewhere in the queue.
func (e *EventDriven) reset() {
	for _, lists := range [][][]qevent{e.ring, e.byLevel} {
		for i, b := range lists {
			for _, ev := range b {
				e.pending[ev.node].active = false
			}
			lists[i] = b[:0]
		}
	}
	clear(e.occupied)
	e.queued = 0
}
