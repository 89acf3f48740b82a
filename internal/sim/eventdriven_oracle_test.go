package sim

import (
	"repro/internal/delay"
	"repro/internal/netlist"
)

// heapEventDriven is the binary-heap event-driven simulator EventDriven
// replaced, kept as the oracle of its differential tests. It commits
// events in (t, level, seq) order by popping a min-heap; semantics,
// counters and observer stream are the ones EventDriven must reproduce
// bit for bit.
type heapEventDriven struct {
	csr    *netlist.CSR
	delays []delay.Picoseconds

	heap []heapEvent

	pendingVal    []bool
	pendingActive []bool
	pendingGen    []uint32

	seq uint64

	LastSettleTime delay.Picoseconds
	LastEvents     uint64

	observer func(id netlist.NodeID, t delay.Picoseconds, v bool)
}

type heapEvent struct {
	t     delay.Picoseconds
	level int32
	seq   uint64
	node  netlist.NodeID
	gen   uint32
}

func newHeapEventDriven(c *netlist.Circuit, dt *delay.Table) *heapEventDriven {
	n := len(c.Nodes)
	return &heapEventDriven{
		csr:           c.CSR(),
		delays:        dt.Delays,
		heap:          make([]heapEvent, 0, 4*n),
		pendingVal:    make([]bool, n),
		pendingActive: make([]bool, n),
		pendingGen:    make([]uint32, n),
	}
}

// Cycle has EventDriven.Cycle's contract.
func (e *heapEventDriven) Cycle(vals []bool, newPins, newQ []bool, weights []float64, counts []uint64) float64 {
	r := e.csr
	sum := 0.0
	e.LastEvents = 0
	e.LastSettleTime = 0
	e.heap = e.heap[:0]

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
			e.fanoutEval(id, 0, vals)
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
			e.fanoutEval(id, 0, vals)
		}
	}

	if counts == nil {
		for len(e.heap) > 0 {
			ev := e.pop()
			id := ev.node
			if !e.pendingActive[id] || e.pendingGen[id] != ev.gen {
				continue // cancelled or superseded
			}
			e.pendingActive[id] = false
			vals[id] = e.pendingVal[id]
			sum += weights[id]
			if e.observer != nil {
				e.observer(id, ev.t, vals[id])
			}
			e.LastEvents++
			if ev.t > e.LastSettleTime {
				e.LastSettleTime = ev.t
			}
			e.fanoutEval(int32(id), ev.t, vals)
		}
	} else {
		for len(e.heap) > 0 {
			ev := e.pop()
			id := ev.node
			if !e.pendingActive[id] || e.pendingGen[id] != ev.gen {
				continue
			}
			e.pendingActive[id] = false
			vals[id] = e.pendingVal[id]
			sum += weights[id]
			counts[id]++
			if e.observer != nil {
				e.observer(id, ev.t, vals[id])
			}
			e.LastEvents++
			if ev.t > e.LastSettleTime {
				e.LastSettleTime = ev.t
			}
			e.fanoutEval(int32(id), ev.t, vals)
		}
	}
	return sum
}

func (e *heapEventDriven) fanoutEval(id int32, t delay.Picoseconds, vals []bool) {
	r := e.csr
	for _, g := range r.GateFanoutList[r.GateFanoutIdx[id]:r.GateFanoutIdx[id+1]] {
		newv := evalCSR(vals, r.Kind[g], r.FaninList[r.FaninIdx[g]:r.FaninIdx[g+1]])
		if e.pendingActive[g] {
			if e.pendingVal[g] == newv {
				continue
			}
			e.pendingGen[g]++
			e.pendingActive[g] = false
		}
		if newv == vals[g] {
			continue
		}
		e.pendingVal[g] = newv
		e.pendingActive[g] = true
		e.pendingGen[g]++
		e.push(heapEvent{t: t + e.delays[g], level: r.Level[g], seq: e.seq,
			node: netlist.NodeID(g), gen: e.pendingGen[g]})
		e.seq++
	}
}

func (a heapEvent) less(b heapEvent) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.level != b.level {
		return a.level < b.level
	}
	return a.seq < b.seq
}

func (e *heapEventDriven) push(ev heapEvent) {
	e.heap = append(e.heap, ev)
	i := len(e.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.heap[i].less(e.heap[parent]) {
			break
		}
		e.heap[i], e.heap[parent] = e.heap[parent], e.heap[i]
		i = parent
	}
}

func (e *heapEventDriven) pop() heapEvent {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	e.heap = h[:last]
	h = e.heap
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l].less(h[small]) {
			small = l
		}
		if r < len(h) && h[r].less(h[small]) {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return top
}
