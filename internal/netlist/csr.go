package netlist

import "repro/internal/logic"

// CSR is a frozen, cache-friendly compressed-sparse-row view of a
// circuit. Instead of chasing per-Node Fanin/Fanout slices (one pointer
// dereference and one potential cache miss per node), simulator inner
// loops walk flat int32 arrays laid out contiguously in memory:
//
//	fanin of node i:  FaninList[FaninIdx[i]:FaninIdx[i+1]]
//	fanout of node i: FanoutList[FanoutIdx[i]:FanoutIdx[i+1]]
//
// Kind and Level are dense per-node arrays so the hot loops never touch
// the Node structs at all. The view is built once by Freeze and shared
// by every simulator over the circuit; it must be treated as read-only.
type CSR struct {
	// Kind[i] is the gate kind of node i.
	Kind []logic.Kind
	// Level[i] is the logic level of node i (sources are 0).
	Level []int32

	// FaninIdx has len(Nodes)+1 entries; FaninList is the concatenation
	// of all fanin lists in node order.
	FaninIdx  []int32
	FaninList []int32

	// FanoutIdx/FanoutList mirror FaninIdx/FaninList for fanouts.
	FanoutIdx  []int32
	FanoutList []int32

	// GateFanoutIdx/GateFanoutList restrict fanouts to combinational
	// sinks — the set the event-driven simulator re-evaluates (DFF D
	// pins are captured at the clock edge, not propagated).
	GateFanoutIdx  []int32
	GateFanoutList []int32

	// Order is the levelized combinational evaluation order (gates only).
	Order []int32

	// Inputs, Latches and Outputs are the declaration-order node lists.
	Inputs  []int32
	Latches []int32
	Outputs []int32

	// LatchD[i] is the D-pin driver of Latches[i].
	LatchD []int32

	// Const0s/Const1s list the constant-driver nodes, so simulators can
	// initialize them without scanning the whole node array every settle.
	Const0s []int32
	Const1s []int32
}

// Fanin returns the fanin node list of node i (read-only).
func (r *CSR) Fanin(i int32) []int32 { return r.FaninList[r.FaninIdx[i]:r.FaninIdx[i+1]] }

// Fanout returns the fanout node list of node i (read-only).
func (r *CSR) Fanout(i int32) []int32 { return r.FanoutList[r.FanoutIdx[i]:r.FanoutIdx[i+1]] }

// NumNodes returns the node count of the underlying circuit.
func (r *CSR) NumNodes() int { return len(r.Kind) }

// buildCSR flattens a validated, levelized circuit into its CSR view.
// Called by Freeze after fanouts and levels are final.
func (c *Circuit) buildCSR() {
	n := len(c.Nodes)
	r := &CSR{
		Kind:          make([]logic.Kind, n),
		Level:         make([]int32, n),
		FaninIdx:      make([]int32, n+1),
		FanoutIdx:     make([]int32, n+1),
		GateFanoutIdx: make([]int32, n+1),
		Order:         make([]int32, len(c.order)),
		Inputs:        make([]int32, len(c.Inputs)),
		Latches:       make([]int32, len(c.Latches)),
		Outputs:       make([]int32, len(c.Outputs)),
		LatchD:        make([]int32, len(c.Latches)),
	}
	totalIn, totalOut, totalGateOut := 0, 0, 0
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		r.Kind[i] = nd.Kind
		r.Level[i] = c.levels[i]
		totalIn += len(nd.Fanin)
		totalOut += len(nd.Fanout)
		for _, t := range nd.Fanout {
			if c.Nodes[t].Kind.IsCombinational() {
				totalGateOut++
			}
		}
		switch nd.Kind {
		case logic.Const0:
			r.Const0s = append(r.Const0s, int32(i))
		case logic.Const1:
			r.Const1s = append(r.Const1s, int32(i))
		}
	}
	r.FaninList = make([]int32, 0, totalIn)
	r.FanoutList = make([]int32, 0, totalOut)
	r.GateFanoutList = make([]int32, 0, totalGateOut)
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		r.FaninIdx[i] = int32(len(r.FaninList))
		for _, f := range nd.Fanin {
			r.FaninList = append(r.FaninList, int32(f))
		}
		r.FanoutIdx[i] = int32(len(r.FanoutList))
		r.GateFanoutIdx[i] = int32(len(r.GateFanoutList))
		for _, t := range nd.Fanout {
			r.FanoutList = append(r.FanoutList, int32(t))
			if c.Nodes[t].Kind.IsCombinational() {
				r.GateFanoutList = append(r.GateFanoutList, int32(t))
			}
		}
	}
	r.FaninIdx[n] = int32(len(r.FaninList))
	r.FanoutIdx[n] = int32(len(r.FanoutList))
	r.GateFanoutIdx[n] = int32(len(r.GateFanoutList))
	for i, id := range c.order {
		r.Order[i] = int32(id)
	}
	for i, id := range c.Inputs {
		r.Inputs[i] = int32(id)
	}
	for i, id := range c.Latches {
		r.Latches[i] = int32(id)
		r.LatchD[i] = int32(c.Nodes[id].Fanin[0])
	}
	for i, id := range c.Outputs {
		r.Outputs[i] = int32(id)
	}
	c.csr = r
}

// CSR returns the flattened view of a frozen circuit.
func (c *Circuit) CSR() *CSR {
	if !c.frozen {
		panic("netlist: CSR on unfrozen circuit " + c.Name)
	}
	return c.csr
}
