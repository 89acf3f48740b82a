package sim

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// oracleDelayTables is the differential battery's delay-table set for c:
// the default fanout-loaded model, unit and zero delays, fanout-loaded
// with every third gate at zero delay, and a gcd-1 table spanning more
// than maxBuckets ticks (so its buckets are several ticks wide) with
// every fifth gate at zero delay.
func oracleDelayTables(c *netlist.Circuit) []*delay.Table {
	fanout := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	mixed := &delay.Table{ModelName: "mixed", Delays: append([]delay.Picoseconds(nil), fanout.Delays...)}
	wide := &delay.Table{ModelName: "wide", Delays: make([]delay.Picoseconds, len(c.Nodes))}
	for i := range c.Nodes {
		if i%3 == 0 {
			mixed.Delays[i] = 0
		}
		if c.Nodes[i].Kind.IsCombinational() && i%5 != 0 {
			wide.Delays[i] = 1 + delay.Picoseconds(i*7919%(3*maxBuckets))
		}
	}
	return []*delay.Table{fanout, delay.BuildTable(c, delay.Unit{}), delay.BuildTable(c, delay.Zero{}), mixed, wide}
}

// oracleWeights are non-dyadic per-node weights, so a changed summation
// order shows in the sum's bits.
func oracleWeights(c *netlist.Circuit) []float64 {
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = 0.1*float64(1+i%5) + 1e-3*float64(i%11)
	}
	return w
}

// diffEventDriven drives ed (built for c under dt) and a fresh heap
// oracle through the same cycles from the same settled reset state and
// fails on the first difference in returned sum bits, final values,
// LastEvents, LastSettleTime, the observer's (node, t, value) stream,
// or the accumulated counts. The next state is usually the circuit's
// own (the latch D values); every fourth cycle jumps to a random state,
// and odd cycles pass nil counts.
func diffEventDriven(t *testing.T, ed *EventDriven, c *netlist.Circuit, dt *delay.Table, cycles int, seed int64) {
	t.Helper()
	or := newHeapEventDriven(c, dt)
	var got, want []transition
	ed.SetObserver(func(id netlist.NodeID, at delay.Picoseconds, v bool) { got = append(got, transition{id, at, v}) })
	or.observer = func(id netlist.NodeID, at delay.Picoseconds, v bool) { want = append(want, transition{id, at, v}) }

	n := c.NumNodes()
	w := oracleWeights(c)
	vals, ovals := make([]bool, n), make([]bool, n)
	counts, ocounts := make([]uint64, n), make([]uint64, n)
	pins, q := make([]bool, len(c.Inputs)), make([]bool, len(c.Latches))
	zd := NewZeroDelay(c)
	zd.Settle(vals, pins, q)
	copy(ovals, vals)
	rng := rand.New(rand.NewSource(seed))
	for cycle := 0; cycle < cycles; cycle++ {
		for i := range pins {
			pins[i] = rng.Intn(2) == 1
		}
		if cycle%4 == 3 {
			for i := range q {
				q[i] = rng.Intn(2) == 1
			}
		} else {
			zd.NextState(vals, q)
		}
		cnt, ocnt := counts, ocounts
		if cycle%2 == 1 {
			cnt, ocnt = nil, nil
		}
		got, want = got[:0], want[:0]
		sum := ed.Cycle(vals, pins, q, w, cnt)
		osum := or.Cycle(ovals, pins, q, w, ocnt)
		if math.Float64bits(sum) != math.Float64bits(osum) {
			t.Fatalf("%s cycle %d: sum %v, oracle %v", dt.ModelName, cycle, sum, osum)
		}
		if ed.LastEvents != or.LastEvents || ed.LastSettleTime != or.LastSettleTime {
			t.Fatalf("%s cycle %d: events %d settle %d, oracle %d %d", dt.ModelName, cycle,
				ed.LastEvents, ed.LastSettleTime, or.LastEvents, or.LastSettleTime)
		}
		if len(got) != len(want) {
			t.Fatalf("%s cycle %d: %d observed transitions, oracle %d", dt.ModelName, cycle, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s cycle %d transition %d: %+v, oracle %+v", dt.ModelName, cycle, i, got[i], want[i])
			}
		}
		for i := range vals {
			if vals[i] != ovals[i] {
				t.Fatalf("%s cycle %d: node %s settled %v, oracle %v", dt.ModelName, cycle, c.Nodes[i].Name, vals[i], ovals[i])
			}
		}
	}
	for i := range counts {
		if counts[i] != ocounts[i] {
			t.Fatalf("%s: node %s counted %d, oracle %d", dt.ModelName, c.Nodes[i].Name, counts[i], ocounts[i])
		}
	}
}

// TestEventDrivenMatchesHeapOracleBench89 runs the differential battery
// over every bench89 circuit under every oracle delay table. Cycle
// counts scale down with circuit size.
func TestEventDrivenMatchesHeapOracleBench89(t *testing.T) {
	for _, name := range bench89.AllNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := bench89.MustGet(name)
			cycles := 24
			switch {
			case c.NumNodes() > 10000:
				cycles = 4
			case c.NumNodes() > 500:
				cycles = 10
			}
			for _, dt := range oracleDelayTables(c) {
				diffEventDriven(t, NewEventDriven(c, dt), c, dt, cycles, bench89SeedBase(name))
			}
		})
	}
}

// TestEventDrivenMatchesHeapOracleRandom runs the battery over seeded
// random netlists, long enough for latch feedback to matter.
func TestEventDrivenMatchesHeapOracleRandom(t *testing.T) {
	for seed := uint32(0); seed < 12; seed++ {
		c, err := bench89.Generate(randomSignature(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, dt := range oracleDelayTables(c) {
			diffEventDriven(t, NewEventDriven(c, dt), c, dt, 40, int64(seed)+11)
		}
	}
}

// laneOracle is a PowerEngine that runs EventDriven on the lane it is
// handed and the heap oracle on a copy, failing the test on any
// difference. One laneOracle serves every lane of a packed session,
// the way one engine serves all of its lanes in observeLanes.
type laneOracle struct {
	t         *testing.T
	ed        *EventDriven
	or        *heapEventDriven
	ovals     []bool
	ocounts   []uint64
	counts    []uint64
	observed  int
	sawEvents bool
}

func (l *laneOracle) CyclePower(vals []bool, newPins, newQ []bool, weights []float64, _ []uint64) float64 {
	copy(l.ovals, vals)
	sum := l.ed.Cycle(vals, newPins, newQ, weights, l.counts)
	osum := l.or.Cycle(l.ovals, newPins, newQ, weights, l.ocounts)
	if math.Float64bits(sum) != math.Float64bits(osum) || l.ed.LastEvents != l.or.LastEvents ||
		l.ed.LastSettleTime != l.or.LastSettleTime {
		l.t.Fatalf("lane call %d: sum %v events %d settle %d, oracle %v %d %d", l.observed,
			sum, l.ed.LastEvents, l.ed.LastSettleTime, osum, l.or.LastEvents, l.or.LastSettleTime)
	}
	for i := range vals {
		if vals[i] != l.ovals[i] {
			l.t.Fatalf("lane call %d: node %d settled %v, oracle %v", l.observed, i, vals[i], l.ovals[i])
		}
	}
	l.observed++
	l.sawEvents = l.sawEvents || l.ed.LastEvents > 0
	return sum
}

// TestEventDrivenMatchesHeapOracleAcrossLanes reuses one engine for
// every lane of a 64-lane packed session, so each Cycle starts from a
// different lane's state than the previous one ended in.
func TestEventDrivenMatchesHeapOracleAcrossLanes(t *testing.T) {
	for _, name := range []string{"s298", "s1494", "s5378"} {
		c := bench89.MustGet(name)
		for _, dt := range oracleDelayTables(c) {
			t.Run(name+"/"+dt.ModelName, func(t *testing.T) {
				n := c.NumNodes()
				l := &laneOracle{t: t, ed: NewEventDriven(c, dt), or: newHeapEventDriven(c, dt),
					ovals: make([]bool, n), ocounts: make([]uint64, n), counts: make([]uint64, n)}
				ps := NewPackedSession(c, laneSources(len(c.Inputs), MaxLanes, bench89SeedBase(name)))
				w := oracleWeights(c)
				powers := make([]float64, MaxLanes)
				for round := 0; round < 3; round++ {
					ps.StepHiddenN(2)
					ps.StepSampledWith(l, w, powers)
				}
				if l.observed != 3*MaxLanes || !l.sawEvents {
					t.Fatalf("observed %d lane cycles (events seen: %v)", l.observed, l.sawEvents)
				}
				for i := range l.counts {
					if l.counts[i] != l.ocounts[i] {
						t.Fatalf("node %s counted %d, oracle %d", c.Nodes[i].Name, l.counts[i], l.ocounts[i])
					}
				}
			})
		}
	}
}

// TestEventDrivenRingBounded pins the ring geometry: one-tick buckets in
// the 20 ps quantum of the default model, and the cap with multi-tick
// buckets for the wide table.
func TestEventDrivenRingBounded(t *testing.T) {
	c := bench89.MustGet("s1494")
	tabs := oracleDelayTables(c)
	var span delay.Picoseconds
	for _, d := range tabs[0].Delays {
		span = max(span, d)
	}
	ed := NewEventDriven(c, tabs[0])
	if ed.quantum != 20 || ed.shift != 0 || int64(len(ed.ring)) != int64(span/20)+1 {
		t.Fatalf("fanout table: quantum %d shift %d ring %d, want 20, 0, %d", ed.quantum, ed.shift, len(ed.ring), span/20+1)
	}
	for _, dt := range tabs {
		ed := NewEventDriven(c, dt)
		if len(ed.ring) > maxBuckets {
			t.Fatalf("%s: ring of %d buckets exceeds the cap %d", dt.ModelName, len(ed.ring), maxBuckets)
		}
		if dt.ModelName == "wide" && (ed.quantum != 1 || ed.shift == 0) {
			t.Fatalf("wide table: quantum %d shift %d, want 1 and multi-tick buckets", ed.quantum, ed.shift)
		}
	}
}

// TestEventDrivenRecoversFromAbortedCycle aborts a Cycle from the
// observer at its first gate commit, with events still queued; from
// then on the engine must match the heap oracle exactly, as a fresh one
// does.
func TestEventDrivenRecoversFromAbortedCycle(t *testing.T) {
	for _, name := range []string{"s298", "s1494"} {
		c := bench89.MustGet(name)
		for _, dt := range oracleDelayTables(c) {
			ed := NewEventDriven(c, dt)
			vals := make([]bool, c.NumNodes())
			pins, q := make([]bool, len(c.Inputs)), make([]bool, len(c.Latches))
			NewZeroDelay(c).Settle(vals, pins, q)
			for i := range pins {
				pins[i] = i%2 == 0
			}
			aborted := false
			ed.SetObserver(func(id netlist.NodeID, _ delay.Picoseconds, _ bool) {
				if c.Nodes[id].Kind.IsCombinational() {
					aborted = true
					panic("abort")
				}
			})
			func() {
				defer func() { _ = recover() }()
				ed.Cycle(vals, pins, q, oracleWeights(c), nil)
			}()
			if !aborted {
				t.Fatalf("%s %s: cycle was not aborted", name, dt.ModelName)
			}
			diffEventDriven(t, ed, c, dt, 6, bench89SeedBase(name))
		}
	}
}

// TestEventDrivenRejectsNegativeDelay: the calendar queue never looks
// back in time, so a table with a negative delay is refused up front.
func TestEventDrivenRejectsNegativeDelay(t *testing.T) {
	c := xorChain(t)
	dt := delay.BuildTable(c, delay.Unit{})
	for i := range c.Nodes {
		if c.Nodes[i].Kind == logic.Xor {
			dt.Delays[i] = -1
			break
		}
	}
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("negative delay accepted")
		}
	}()
	NewEventDriven(c, dt)
}

// fuzzDelayTable derives a delay table for c from fuzz bytes. The first
// byte picks a scale (a power of two up to 2^15); every node then takes
// one byte, cycling: its low seven bits times the scale, plus the top
// bit as a one-picosecond offset. So tables mix zero and nonzero
// delays, gcds from 1 up, and spans far past the bucket cap, and give
// sources delays the simulators never use. Empty bytes give the default
// fanout-loaded table.
func fuzzDelayTable(c *netlist.Circuit, b []byte) *delay.Table {
	if len(b) == 0 {
		return delay.BuildTable(c, delay.DefaultFanoutLoaded())
	}
	scale := delay.Picoseconds(1) << (b[0] % 16)
	dt := &delay.Table{ModelName: fmt.Sprintf("fuzz%x", b), Delays: make([]delay.Picoseconds, len(c.Nodes))}
	for i := range c.Nodes {
		x := b[i%len(b)]
		dt.Delays[i] = delay.Picoseconds(x&0x7f)*scale + delay.Picoseconds(x>>7)
	}
	return dt
}

// FuzzEventDriven feeds arbitrary ".bench" text (FuzzCompile's seeds,
// plus generated random netlists) and a delay table drawn from the fuzz
// bytes through EventDriven and the heap oracle, requiring identical
// sums, values, counters, observer streams and counts; then through
// the lane engine eventLanes against EventDriven on each lane of a
// battery mask the bytes pick (diffEventLanes).
func FuzzEventDriven(f *testing.F) {
	f.Add("INPUT(a)\nOUTPUT(z)\nz = AND(a, a)\n", []byte{})
	f.Add("INPUT(a)\nOUTPUT(z)\nq = DFF(d)\nd = NOT(q)\nz = OR(a, q)\n", []byte{0, 0x81, 3})
	f.Add("INPUT(a)\nOUTPUT(z)\nc0 = CONST0()\nb = BUF(c0)\nq = DFF(b)\nz = XOR(a, q)\n", []byte{4, 0, 7})
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq1 = DFF(q2)\nq2 = DFF(q1)\nz = NAND(a, XNORg)\nXNORg = XNOR(b, q1)\n", []byte{15, 0xff, 1, 0})
	f.Add("INPUT(a)\nOUTPUT(z)\nc1 = CONST1()\nz = XOR(a, c1)\nq = DFF(z)\n", []byte{1})
	for seed := uint32(0); seed < 4; seed++ {
		gen, err := bench89.Generate(randomSignature(seed))
		if err != nil {
			f.Fatal(err)
		}
		var text bytes.Buffer
		if err := netlist.WriteBench(&text, gen); err != nil {
			f.Fatal(err)
		}
		f.Add(text.String(), []byte{byte(seed * 5), 0x80, 0, 0x7f, 3, 0x90})
	}
	f.Fuzz(func(t *testing.T, text string, tab []byte) {
		c, err := netlist.ParseBenchString("fuzz", text)
		if err != nil {
			t.Skip()
		}
		dt := fuzzDelayTable(c, tab)
		if len(NewEventDriven(c, dt).ring) > maxBuckets {
			t.Fatal("ring exceeds the bucket cap")
		}
		diffEventDriven(t, NewEventDriven(c, dt), c, dt, 8, int64(len(tab)))
		diffEventLanes(t, newEventLanes(newCalendar(c, dt)), c, dt, laneMasks[len(tab)%len(laneMasks)], 8, int64(len(text)))
	})
}
