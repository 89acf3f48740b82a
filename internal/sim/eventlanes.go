package sim

import (
	"math"
	"math/bits"

	"repro/internal/delay"
	"repro/internal/netlist"
)

// eventLanes is EventDriven on lane words: one Cycle simulates a clock
// cycle for up to 64 replication lanes at once, lane k being bit k of
// one uint64 per node, with EventDriven's inertial-delay semantics and
// commit order. Every lane's transitions, transition counts and
// weighted sum, float summation order included, are bit-identical to
// what EventDriven.Cycle computes for that lane alone. It is the
// general-delay observer of every estimate: the tail's shards observe
// each 64-lane word of a sampled cycle with one Cycle, and a serial
// Session observes its settle batch of up to 32 (old, new) pairs with
// one Cycle, as the max-power search does each candidate cycle of its
// own. Each session builds its own from its delay table. EventDriven
// stays as its oracle.
//
// A push queues one entry (node, time, lane mask) for the lanes that
// schedule a change of the node in one gate re-evaluation. Entries
// commit in (time, logic level, push order) on EventDriven's calendar:
// the same ring of buckets, level lists and occupied bitmap. Restricted
// to one lane, that order is EventDriven's (time, level, scheduling
// order). By induction over the cycle, each lane's commits come in its
// scalar order, so its re-evaluations push in its scalar order too, and
// the lane replays its scalar run exactly. A shared canonical tiebreak
// such as (time, level, node) would not: commits within a level can
// move pending times, so it would change transition sets.
//
// A commit of node id for lanes M re-evaluates each fanout gate g on
// words (evalPacked). A pending change always flips the gate's current
// value, so with diff = the lanes of M whose new value differs from
// the current one:
//
//   - active lanes of M outside diff cancel their pending change;
//   - inactive lanes in diff schedule a change at the gate's delay;
//   - active lanes in diff keep their pending change, as in EventDriven.
//
// A cancellation clears the lane's bit in the entry that holds it. Two
// entries of one node can share a time (a cancel and a reschedule in
// one time step), so each node keeps a chain of its live entries, which
// is usually one long. An entry whose mask reaches zero is stale: it
// leaves its chain at once and the queue where EventDriven drops a
// stale event, so the earliest-time scan and the queued count agree.
type eventLanes struct {
	calendar

	// ents is the entry pool; index 0 is the nil link. Released
	// entries form a free list through next, headed by free.
	ents []laneEntry
	free int32
	// head[id] is the first live entry of node id's chain, and act[id]
	// the lanes with a pending change of id: the union of the chain's
	// masks.
	head []int32
	act  []uint64

	// The queue, as in EventDriven, holding entry indices.
	ring     [][]int32
	queued   int
	curT     int64
	curN     int64
	curSlot  int
	byLevel  [][]int32
	occupied []uint64
	busy     bool // inside Cycle; still set on entry after an aborted one

	observer func(lane int, id netlist.NodeID, t delay.Picoseconds, v bool)
}

// laneEntry is one push: a pending change of node at time t (ticks) for
// the lanes in mask. next links the node's chain of live entries, or
// the free list.
type laneEntry struct {
	mask uint64
	t    int64
	node int32
	next int32
}

// newEventLanes builds the lane-word event-driven simulator on a
// circuit's calendar (newCalendar).
func newEventLanes(cal calendar) *eventLanes {
	n := len(cal.csr.Level)
	return &eventLanes{
		calendar: cal,
		ents:     make([]laneEntry, 1, 1+n),
		head:     make([]int32, n),
		act:      make([]uint64, n),
		ring:     make([][]int32, cal.buckets),
		byLevel:  make([][]int32, cal.levels),
		occupied: make([]uint64, (cal.levels+63)/64),
	}
}

// SetObserver installs (or clears, with nil) a callback invoked for
// every committed transition of every lane during subsequent Cycles,
// the t=0 source changes included. Within one lane the calls come in
// EventDriven's observer order; lanes that commit together are reported
// in ascending lane order.
func (e *eventLanes) SetObserver(fn func(lane int, id netlist.NodeID, t delay.Picoseconds, v bool)) {
	e.observer = fn
}

// Cycle simulates one clock cycle for the lanes in mask. On entry
// vals[i] must hold node i's settled values for each lane's previous
// (pattern, state); on return it holds them for (newPins, newQ), one
// word per input and per latch. Lanes outside mask are left alone.
//
// sums[k] receives lane k's weighted transition sum (lanes outside mask
// read 0). If counts is non-nil, counts[i] grows by the number of lanes
// in each committed transition of node i; it is not cleared first.
func (e *eventLanes) Cycle(vals, newPins, newQ []uint64, mask uint64, weights []float64, sums *[64]float64, counts []uint64) {
	r := e.csr
	if e.busy {
		e.reset() // the previous Cycle was aborted and left entries behind
	}
	e.busy = true
	e.curT, e.curN, e.curSlot = 0, 0, 0
	*sums = [64]float64{}

	// Apply simultaneous source changes at t=0, inputs first, as
	// EventDriven does.
	for i, id := range r.Inputs {
		if m := (vals[id] ^ newPins[i]) & mask; m != 0 {
			e.commit(id, 0, m, vals, weights, sums, counts)
		}
	}
	for i, id := range r.Latches {
		if m := (vals[id] ^ newQ[i]) & mask; m != 0 {
			e.commit(id, 0, m, vals, weights, sums, counts)
		}
	}

	// Propagate to quiescence, one time at a time.
	for {
		t := delay.Picoseconds(e.curT) * e.quantum
		for w := range e.occupied {
			for e.occupied[w] != 0 {
				l := w<<6 | bits.TrailingZeros64(e.occupied[w])
				e.occupied[w] &^= 1 << (l & 63)
				list := e.byLevel[l]
				for _, x := range list {
					en := e.ents[x]
					e.release(x)
					if en.mask == 0 {
						continue // every lane cancelled
					}
					e.unlink(en.node, x, en.next)
					e.act[en.node] &^= en.mask
					e.commit(en.node, t, en.mask, vals, weights, sums, counts)
				}
				e.byLevel[l] = list[:0]
			}
		}
		if e.queued == 0 {
			e.busy = false
			return
		}
		e.advance()
	}
}

// commit flips node id on lanes m at time t, books the transitions and
// re-evaluates id's fanout gates for those lanes.
func (e *eventLanes) commit(id int32, t delay.Picoseconds, m uint64, vals []uint64, weights []float64, sums *[64]float64, counts []uint64) {
	vals[id] ^= m
	wt := weights[id]
	for b := m; b != 0; b &= b - 1 {
		sums[bits.TrailingZeros64(b)&63] += wt
	}
	if counts != nil {
		counts[id] += uint64(bits.OnesCount64(m))
	}
	if e.observer != nil {
		for b := m; b != 0; b &= b - 1 {
			k := bits.TrailingZeros64(b)
			e.observer(k, netlist.NodeID(id), t, vals[id]>>uint(k)&1 != 0)
		}
	}
	r := e.csr
	for _, g := range r.GateFanoutList[r.GateFanoutIdx[id]:r.GateFanoutIdx[id+1]] {
		diff := (evalPacked(vals, r.Kind[g], r.FaninList[r.FaninIdx[g]:r.FaninIdx[g+1]]) ^ vals[g]) & m
		act := e.act[g] & m
		if c := act &^ diff; c != 0 {
			e.cancel(g, c)
		}
		if s := diff &^ act; s != 0 {
			e.schedule(g, s)
		}
	}
}

// schedule queues a change of gate g for lanes s at the gate's delay
// past the current time.
func (e *eventLanes) schedule(g int32, s uint64) {
	t := e.curT + e.ticks[g]
	x := e.free
	if x != 0 {
		e.free = e.ents[x].next
	} else {
		x = int32(len(e.ents))
		e.ents = append(e.ents, laneEntry{})
	}
	e.ents[x] = laneEntry{mask: s, t: t, node: g, next: e.head[g]}
	e.head[g] = x
	e.act[g] |= s
	// A zero-delay gate's change joins the current time's level lists;
	// any other goes to the back of its time's bucket.
	if t == e.curT {
		e.file(x)
		return
	}
	slot := e.curSlot + int(t>>e.shift-e.curN)
	if slot >= len(e.ring) {
		slot -= len(e.ring)
	}
	e.ring[slot] = append(e.ring[slot], x)
	e.queued++
}

// cancel drops the pending changes of gate g on lanes c, clearing each
// lane's bit in the chain entry that holds it. An entry left with no
// lanes leaves the chain; its queue slot is dropped later.
func (e *eventLanes) cancel(g int32, c uint64) {
	e.act[g] &^= c
	link := &e.head[g]
	for c != 0 {
		en := &e.ents[*link]
		if hit := en.mask & c; hit != 0 {
			en.mask &^= hit
			c &^= hit
			if en.mask == 0 {
				*link = en.next
				continue
			}
		}
		link = &en.next
	}
}

// unlink removes entry x, whose chain successor is next, from node
// id's chain.
func (e *eventLanes) unlink(id, x, next int32) {
	link := &e.head[id]
	for *link != x {
		link = &e.ents[*link].next
	}
	*link = next
}

// release returns entry x to the free list.
func (e *eventLanes) release(x int32) {
	e.ents[x].next = e.free
	e.free = x
}

// file appends entry x, due at the current time, to its level's list.
func (e *eventLanes) file(x int32) {
	l := e.csr.Level[e.ents[x].node]
	e.byLevel[l] = append(e.byLevel[l], x)
	e.occupied[l>>6] |= 1 << (l & 63)
}

// advance moves the current time to the earliest pending change and
// files that time's entries into byLevel, in push order, exactly as
// EventDriven.advance does with events. Stale entries met on the way
// are released.
func (e *eventLanes) advance() {
	for {
		if b := e.ring[e.curSlot]; len(b) > 0 {
			live, first := 0, int64(math.MaxInt64)
			for _, x := range b {
				if en := &e.ents[x]; en.mask != 0 {
					first = min(first, en.t)
					b[live] = x
					live++
				} else {
					e.release(x)
				}
			}
			e.queued -= len(b) - live
			b = b[:live]
			if live > 0 {
				e.curT = first
				rest := 0
				for _, x := range b {
					if e.ents[x].t == first {
						e.file(x)
					} else {
						b[rest] = x
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

// reset empties the queue after an aborted Cycle, so no pending change
// leaks into the next one.
func (e *eventLanes) reset() {
	for _, lists := range [][][]int32{e.ring, e.byLevel} {
		for i, b := range lists {
			lists[i] = b[:0]
		}
	}
	clear(e.occupied)
	clear(e.head)
	clear(e.act)
	e.ents, e.free, e.queued = e.ents[:1], 0, 0
}
