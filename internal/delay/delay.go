package delay

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Picoseconds is the time unit of the event-driven simulator.
type Picoseconds int64

// Model maps a node to its propagation delay. Implementations must be
// pure functions of the node's structure so results can be precomputed.
type Model interface {
	// NodeDelay returns the inertial propagation delay of the node's
	// output, given its gate kind and fanout count. A gate's delay must
	// not be negative: the event-driven simulator refuses such a table.
	NodeDelay(kind logic.Kind, fanout int) Picoseconds
	// Name identifies the model in reports.
	Name() string
}

// Zero is a delay model where every gate switches instantly. Under this
// model the event-driven simulator degenerates to counting functional
// (zero-delay) transitions: glitches disappear.
type Zero struct{}

// NodeDelay implements Model.
func (Zero) NodeDelay(logic.Kind, int) Picoseconds { return 0 }

// Name implements Model.
func (Zero) Name() string { return "zero" }

// Unit assigns one unit (1 ps) to every gate: the classical unit-delay
// model, which exposes glitching due to unequal path depths.
type Unit struct{}

// NodeDelay implements Model.
func (Unit) NodeDelay(kind logic.Kind, _ int) Picoseconds {
	if !kind.IsCombinational() {
		return 0
	}
	return 1
}

// Name implements Model.
func (Unit) Name() string { return "unit" }

// FanoutLoaded is the paper-era "variable delay" model: gate delay grows
// linearly with the capacitive load it drives, d = Base + PerFanout*fanout.
// Inverters and buffers are given a slightly smaller base to reflect their
// lower logical effort.
type FanoutLoaded struct {
	Base       Picoseconds // intrinsic delay, e.g. 200 ps
	PerFanout  Picoseconds // load-dependent delay per fanout, e.g. 100 ps
	InvDiscout Picoseconds // subtracted for NOT/BUF, e.g. 80 ps
}

// DefaultFanoutLoaded returns the coefficients used by the benchmark
// experiments: 200 ps + 100 ps/fanout, inverters 80 ps faster. They put a
// 20-level circuit's settling time well inside the 50 ns clock period of
// the paper's 20 MHz operating point.
func DefaultFanoutLoaded() FanoutLoaded {
	return FanoutLoaded{Base: 200, PerFanout: 100, InvDiscout: 80}
}

// NodeDelay implements Model.
func (m FanoutLoaded) NodeDelay(kind logic.Kind, fanout int) Picoseconds {
	if !kind.IsCombinational() {
		return 0
	}
	d := m.Base + m.PerFanout*Picoseconds(fanout)
	if kind == logic.Not || kind == logic.Buf {
		d -= m.InvDiscout
	}
	if d < 1 {
		d = 1
	}
	return d
}

// Name implements Model.
func (m FanoutLoaded) Name() string {
	return fmt.Sprintf("fanout(%d+%d/fo)", m.Base, m.PerFanout)
}

// Table precomputes per-node delays for one circuit under a Model; it is
// what the simulators consume.
type Table struct {
	ModelName string
	Delays    []Picoseconds // indexed by NodeID
}

// BuildTable evaluates the model for every node of a frozen circuit.
func BuildTable(c *netlist.Circuit, m Model) *Table {
	t := &Table{ModelName: m.Name(), Delays: make([]Picoseconds, len(c.Nodes))}
	for i := range c.Nodes {
		t.Delays[i] = m.NodeDelay(c.Nodes[i].Kind, len(c.Nodes[i].Fanout))
	}
	return t
}

// AllZero reports whether every node delay in the table is zero. Under
// an all-zero table the event-driven simulator commits at most one
// transition per node per cycle (same-time events are processed in
// level order with inertial cancellation), so it counts exactly the
// functional toggles that zero-delay observation counts; the estimator
// uses this to substitute the bit-parallel zero-delay power engine for
// per-lane event-driven simulation. The set of counted transitions is
// identical; only the floating-point summation order differs.
func (t *Table) AllZero() bool {
	for _, d := range t.Delays {
		if d != 0 {
			return false
		}
	}
	return true
}

// MaxSettling returns a conservative bound on the settling time of one
// clock cycle: the sum over the longest path of per-level maxima. It is
// used to sanity-check that the clock period covers combinational
// settling.
func (t *Table) MaxSettling(c *netlist.Circuit) Picoseconds {
	depth := c.Depth()
	if depth == 0 {
		return 0
	}
	maxAtLevel := make([]Picoseconds, depth+1)
	for _, id := range c.Order() {
		l := c.Level(id)
		if t.Delays[id] > maxAtLevel[l] {
			maxAtLevel[l] = t.Delays[id]
		}
	}
	var total Picoseconds
	for _, d := range maxAtLevel {
		total += d
	}
	return total
}
