package sim

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/netlist"
)

// laneMasks is the lane-engine battery's mask set: the first 1, 31, 32,
// 63 and 64 lanes, and two masks with holes.
var laneMasks = []uint64{1, 1<<31 - 1, 1<<32 - 1, 1<<63 - 1, ^uint64(0), 0x5555_5555_5555_5555, 0x8000_0100_f00f_0002}

// diffEventLanes drives el (built for c under dt) over the lanes of
// mask and one EventDriven over each of those lanes in turn,
// from the same settled reset state, and fails on the first difference
// in any lane's sum bits, settled values or accumulated counts, or in
// the observer stream of the mask's highest lane. Every lane draws its
// own input patterns; the next state is usually the lane's own (the
// latch D values), and every fourth cycle jumps to a random one. Odd
// cycles pass nil counts. Lanes outside mask must stay untouched, and
// their sums must read 0.
func diffEventLanes(t *testing.T, el *eventLanes, c *netlist.Circuit, dt *delay.Table, mask uint64, cycles int, seed int64) {
	t.Helper()
	ed := NewEventDriven(c, dt)
	watch := 63 - bits.LeadingZeros64(mask)
	var got, want []transition
	el.SetObserver(func(lane int, id netlist.NodeID, at delay.Picoseconds, v bool) {
		if lane == watch {
			got = append(got, transition{id, at, v})
		}
	})

	n := c.NumNodes()
	w := oracleWeights(c)
	zd := NewZeroDelay(c)
	var vals [64][]bool
	words := make([]uint64, n)
	for k := range vals {
		vals[k] = make([]bool, n)
		zd.Settle(vals[k], make([]bool, len(c.Inputs)), make([]bool, len(c.Latches)))
	}
	for i := range words {
		words[i] = -b2u(vals[0][i]) // every lane starts from the same reset state
	}
	pins := make([]bool, len(c.Inputs))
	q := make([]bool, len(c.Latches))
	pinWords := make([]uint64, len(c.Inputs))
	qWords := make([]uint64, len(c.Latches))
	counts, wantCounts := make([]uint64, n), make([]uint64, n)
	var sums [64]float64
	rng := rand.New(rand.NewSource(seed))
	for cycle := 0; cycle < cycles; cycle++ {
		clear(pinWords)
		clear(qWords)
		var wantSums [64]float64
		cnt, wcnt := counts, wantCounts
		if cycle%2 == 1 {
			cnt, wcnt = nil, nil
		}
		before := append([]uint64(nil), words...)
		for m := mask; m != 0; m &= m - 1 {
			k := bits.TrailingZeros64(m)
			for i := range pins {
				pins[i] = rng.Intn(2) == 1
				pinWords[i] |= b2u(pins[i]) << uint(k)
			}
			if cycle%4 == 3 {
				for i := range q {
					q[i] = rng.Intn(2) == 1
				}
			} else {
				zd.NextState(vals[k], q)
			}
			for i := range q {
				qWords[i] |= b2u(q[i]) << uint(k)
			}
			if k == watch {
				ed.SetObserver(func(id netlist.NodeID, at delay.Picoseconds, v bool) { want = append(want, transition{id, at, v}) })
			}
			wantSums[k] = ed.Cycle(vals[k], pins, q, w, wcnt)
			ed.SetObserver(nil)
		}
		// Lanes outside the mask hold garbage inputs, which Cycle must
		// ignore.
		for i := range pinWords {
			pinWords[i] |= rng.Uint64() &^ mask
		}
		for i := range qWords {
			qWords[i] |= rng.Uint64() &^ mask
		}
		got = got[:0]
		el.Cycle(words, pinWords, qWords, mask, w, &sums, cnt)
		where := fmt.Sprintf("%s mask %#x cycle %d", dt.ModelName, mask, cycle)
		for k := 0; k < 64; k++ {
			if math.Float64bits(sums[k]) != math.Float64bits(wantSums[k]) {
				t.Fatalf("%s lane %d: sum %v, EventDriven %v", where, k, sums[k], wantSums[k])
			}
		}
		for i := range words {
			for k := 0; k < 64; k++ {
				want := before[i]>>uint(k)&1 != 0
				if mask>>uint(k)&1 != 0 {
					want = vals[k][i]
				}
				if words[i]>>uint(k)&1 != 0 != want {
					t.Fatalf("%s lane %d: node %s settled %v, want %v", where, k, c.Nodes[i].Name, !want, want)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s lane %d: %d observed transitions, EventDriven %d", where, watch, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s lane %d transition %d: %+v, EventDriven %+v", where, watch, i, got[i], want[i])
			}
		}
		want = want[:0]
	}
	for i := range counts {
		if counts[i] != wantCounts[i] {
			t.Fatalf("%s mask %#x: node %s counted %d, EventDriven %d", dt.ModelName, mask, c.Nodes[i].Name, counts[i], wantCounts[i])
		}
	}
}

// TestEventLanesMatchesEventDrivenBench89 runs the lane-engine battery
// over every bench89 circuit under every oracle delay table and every
// battery mask. Cycle counts scale down with circuit size; past two
// thousand nodes only a 31-lane mask and the full word run, and past
// ten thousand only the full word.
func TestEventLanesMatchesEventDrivenBench89(t *testing.T) {
	for _, name := range bench89.AllNames() {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := bench89.MustGet(name)
			cycles, masks := 12, laneMasks
			switch {
			case c.NumNodes() > 10000:
				if testing.Short() {
					t.Skip("large circuit in -short mode")
				}
				cycles, masks = 4, []uint64{^uint64(0)}
			case c.NumNodes() > 2000:
				cycles, masks = 6, []uint64{laneMasks[1], ^uint64(0)}
			case c.NumNodes() > 500:
				cycles = 8
			}
			for _, dt := range oracleDelayTables(c) {
				for i, mask := range masks {
					diffEventLanes(t, newEventLanes(newCalendar(c, dt)), c, dt, mask, cycles, bench89SeedBase(name)+int64(i))
				}
			}
		})
	}
}

// TestEventLanesMatchesEventDrivenRandom runs the battery over seeded
// random netlists, long enough for latch feedback to matter.
func TestEventLanesMatchesEventDrivenRandom(t *testing.T) {
	for seed := uint32(0); seed < 12; seed++ {
		c, err := bench89.Generate(randomSignature(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, dt := range oracleDelayTables(c) {
			diffEventLanes(t, newEventLanes(newCalendar(c, dt)), c, dt, laneMasks[int(seed)%len(laneMasks)], 24, int64(seed)+11)
		}
	}
}

// TestEventLanesRecoversFromAbortedCycle aborts a Cycle from the
// observer at its first gate commit, with entries still queued and
// chained; from then on the engine must match EventDriven exactly, as
// a fresh one does.
func TestEventLanesRecoversFromAbortedCycle(t *testing.T) {
	for _, name := range []string{"s298", "s1494"} {
		c := bench89.MustGet(name)
		for _, dt := range oracleDelayTables(c) {
			el := newEventLanes(newCalendar(c, dt))
			vals := make([]uint64, c.NumNodes())
			pins, q := make([]uint64, len(c.Inputs)), make([]uint64, len(c.Latches))
			settled := make([]bool, c.NumNodes())
			NewZeroDelay(c).Settle(settled, make([]bool, len(pins)), make([]bool, len(q)))
			for i, v := range settled {
				vals[i] = -b2u(v)
			}
			for i := range pins {
				pins[i] = 0x5555_5555_5555_5555
			}
			aborted := false
			el.SetObserver(func(_ int, id netlist.NodeID, _ delay.Picoseconds, _ bool) {
				if c.Nodes[id].Kind.IsCombinational() {
					aborted = true
					panic("abort")
				}
			})
			var sums [64]float64
			func() {
				defer func() { _ = recover() }()
				el.Cycle(vals, pins, q, ^uint64(0), oracleWeights(c), &sums, nil)
			}()
			if !aborted {
				t.Fatalf("%s %s: cycle was not aborted", name, dt.ModelName)
			}
			diffEventLanes(t, el, c, dt, ^uint64(0), 6, bench89SeedBase(name))
		}
	}
}
