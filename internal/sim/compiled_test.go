package sim

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/netlist"
)

// packedTile is one <=64-lane packed reference covering compiled lanes
// [lo, lo+ps.Lanes()). A compiled session wider than 64 lanes is
// checked against packed sessions tiling the same lane range — per-lane
// bit-identity is width-independent, so tiling checks exactly the
// multi-word packing contract.
type packedTile struct {
	lo int
	ps *PackedSession
}

// newPackedTiles builds packed reference sessions tiling `lanes` lanes
// with the same lane→seed mapping the compiled session uses.
func newPackedTiles(c *netlist.Circuit, lanes int, base int64) []packedTile {
	var tiles []packedTile
	for lo := 0; lo < lanes; lo += MaxLanes {
		n := lanes - lo
		if n > MaxLanes {
			n = MaxLanes
		}
		tiles = append(tiles, packedTile{
			lo: lo,
			ps: NewPackedSession(c, laneSources(len(c.Inputs), n, base+int64(lo))),
		})
	}
	return tiles
}

// diffCompiledPacked drives compiled sessions and their packed
// reference tiles through `cycles` mixed steps (hidden runs and all
// three sampled flavours, chosen by a seeded rng) and reports any
// per-lane divergence: settled node values, input pattern, latch state,
// zero-delay toggle powers, general-delay powers (the compiled lane
// engine against the tiles' EventDriven on each lane) and the
// control-variate covariate must all be bit-identical, and the per-node
// transition counts both sides accumulate over the run must be equal.
//
// A compiled session observes under the one delay model it was built
// with, so the compiled side is two twins over the same sources: zd
// (no delay table) and gd (the default fanout-loaded table). On every
// cycle one twin takes the step the tiles take and the other steps
// hidden, which moves the state exactly as a sampled step does, so both
// twins stay on the tiles' trajectory: zd is compared with the tiles
// lane by lane, and gd with zd word by word. Counts and cycle counters
// are checked over the two twins together.
func diffCompiledPacked(t *testing.T, c *netlist.Circuit, lanes, cycles int, base, rngSeed int64) {
	t.Helper()
	dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	zd := NewCompiledSession(c, nil, laneSources(len(c.Inputs), lanes, base))
	gd := NewCompiledSession(c, dt, laneSources(len(c.Inputs), lanes, base))
	twins := []*CompiledSession{zd, gd}
	tiles := newPackedTiles(c, lanes, base)
	weights := make([]float64, c.NumNodes())
	for i := range weights {
		weights[i] = 1 + float64(i%7)/3
	}
	tileEngine := NewEventDriven(c, dt)
	cCounts, pCounts := make([]uint64, c.NumNodes()), make([]uint64, c.NumNodes())
	for _, cs := range twins {
		cs.AccumulateToggles(cCounts)
	}
	for _, tl := range tiles {
		tl.ps.AccumulateToggles(pCounts)
	}

	// The packed tiles write into their own slice of the lane-indexed
	// buffers, so comparisons address both sessions by global lane.
	cPow := make([]float64, lanes)
	cTog := make([]float64, lanes)
	pPow := make([]float64, lanes)
	pTog := make([]float64, lanes)
	cVals := make([]bool, c.NumNodes())
	pVals := make([]bool, c.NumNodes())
	cPins := make([]bool, len(c.Inputs))
	pPins := make([]bool, len(c.Inputs))
	cQ := make([]bool, len(c.Latches))
	pQ := make([]bool, len(c.Latches))

	compareLanes := func(cycle int, sampled bool) {
		for _, tl := range tiles {
			for k := 0; k < tl.ps.Lanes(); k++ {
				lane := tl.lo + k
				if sampled {
					if cPow[lane] != pPow[lane] {
						t.Fatalf("cycle %d lane %d: power %g, packed %g", cycle, lane, cPow[lane], pPow[lane])
					}
					if cTog[lane] != pTog[lane] {
						t.Fatalf("cycle %d lane %d: toggle %g, packed %g", cycle, lane, cTog[lane], pTog[lane])
					}
				}
				zd.ExtractLane(lane, cVals, cPins, cQ)
				tl.ps.ExtractLane(k, pVals, pPins, pQ)
				for i := range cQ {
					if cQ[i] != pQ[i] {
						t.Fatalf("cycle %d lane %d: latch %d mismatch", cycle, lane, i)
					}
				}
				for i := range cPins {
					if cPins[i] != pPins[i] {
						t.Fatalf("cycle %d lane %d: input %d mismatch", cycle, lane, i)
					}
				}
				for i := range cVals {
					if cVals[i] != pVals[i] {
						t.Fatalf("cycle %d lane %d: node %s mismatch", cycle, lane, c.Nodes[i].Name)
					}
				}
			}
		}
		gd.refreshFull()
		same := func(what string, a, b []uint64) {
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("cycle %d: twins' %s word %d differs", cycle, what, i)
				}
			}
		}
		same("latch", zd.q, gd.q)
		same("input", zd.pins, gd.pins)
		same("node", zd.full[:c.NumNodes()*zd.w], gd.full[:c.NumNodes()*gd.w])
	}

	rng := rand.New(rand.NewSource(rngSeed))
	for cycle := 0; cycle < cycles; cycle++ {
		sampled := true
		switch rng.Intn(5) {
		case 0, 1:
			sampled = false
			for _, cs := range twins {
				cs.StepHidden()
			}
			for _, tl := range tiles {
				tl.ps.StepHidden()
			}
		case 2:
			// Zero-delay word-level sampling (zd's StepSampled). The
			// toggle comparison reuses the power slot: under this
			// flavour the toggle sum IS the power.
			zd.StepSampled(weights, cPow)
			gd.StepHidden()
			copy(cTog, cPow)
			for _, tl := range tiles {
				tl.ps.StepSampled(weights, pPow[tl.lo:tl.lo+tl.ps.Lanes()])
			}
			copy(pTog, pPow)
		case 3:
			// General-delay sampling (gd's StepSampled): the lane engine
			// against EventDriven on each lane.
			gd.StepSampled(weights, cPow)
			zd.StepHidden()
			copy(cTog, cPow)
			for _, tl := range tiles {
				tl.ps.StepSampledWith(tileEngine, weights, pPow[tl.lo:tl.lo+tl.ps.Lanes()])
			}
			copy(pTog, pPow)
		default:
			// Lane-engine power plus toggle covariate (StepSampledBoth).
			gd.StepSampledBoth(weights, cPow, cTog)
			zd.StepHidden()
			for _, tl := range tiles {
				lo, hi := tl.lo, tl.lo+tl.ps.Lanes()
				tl.ps.StepSampledBoth(tileEngine, weights, pPow[lo:hi], pTog[lo:hi])
			}
		}
		compareLanes(cycle, sampled)
	}
	var ph, psamp uint64
	for _, tl := range tiles {
		h, s := tl.ps.CycleCounts()
		ph += h
		psamp += s
	}
	// Each twin ran every cycle, hidden or sampled; between them they
	// sampled each of the tiles' sampled cycles once.
	var csamp uint64
	for twin, cs := range twins {
		h, s := cs.CycleCounts()
		if h+s != ph+psamp {
			t.Fatalf("twin %d ran %d lane-cycles, packed %d", twin, h+s, ph+psamp)
		}
		csamp += s
	}
	if csamp != psamp {
		t.Fatalf("twins sampled %d lane-cycles, packed %d", csamp, psamp)
	}
	for i := range cCounts {
		if cCounts[i] != pCounts[i] {
			t.Fatalf("node %s counted %d, packed %d", c.Nodes[i].Name, cCounts[i], pCounts[i])
		}
	}
}

// TestCompiledMatchesPackedBench89 runs the differential battery over
// every bench89 circuit — the paper's 24 plus the extended large set up
// to s38417/s38584 — at full word width: compiled and interpreted
// sessions must agree bit-for-bit on all 64 lanes under both power
// modes. Cycle counts scale down with circuit size so the big circuits
// stay affordable without losing coverage of the mixed step flavours.
func TestCompiledMatchesPackedBench89(t *testing.T) {
	for _, name := range bench89.AllNames() {
		name := name
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
			diffCompiledPacked(t, c, MaxLanes, cycles, bench89SeedBase(name), 101)
		})
	}
}

// TestCompiledBlockedMatchesPacked reruns the differential battery on
// three circuits of increasing size with a second stimulus seed. The
// name and the /default subtests date from when the test also forced
// cache-blocked regimes; the default session, a single opcode-sorted
// pass, is the one form that remains.
func TestCompiledBlockedMatchesPacked(t *testing.T) {
	for _, circuit := range []string{"s298", "s1423", "s5378"} {
		c := bench89.MustGet(circuit)
		t.Run(circuit+"/default", func(t *testing.T) {
			t.Parallel()
			diffCompiledPacked(t, c, MaxLanes, 10, bench89SeedBase(circuit), 7)
		})
	}
}

// bench89SeedBase derives a stable per-circuit seed base.
func bench89SeedBase(name string) int64 {
	var h int64 = 1
	for _, r := range name {
		h = h*131 + int64(r)
	}
	return h&0xffff + 3
}

// TestCompiledMultiWordLanes checks the widened packing: 65, 256 and
// 512 lanes exercise 2-, 4- and 8-word rows (8 words take the
// run-batched dispatcher), including a partial final word, against
// 64-lane packed tiles. On s1494 the general-delay steps run the lane
// engine over every word of a 65- and a 512-lane shard.
func TestCompiledMultiWordLanes(t *testing.T) {
	c := bench89.MustGet("s298")
	for _, lanes := range []int{1, 63, 65, 256, CompiledMaxLanes} {
		diffCompiledPacked(t, c, lanes, 10, int64(900+lanes), int64(lanes))
	}
	c = bench89.MustGet("s1494")
	for _, lanes := range []int{65, CompiledMaxLanes} {
		diffCompiledPacked(t, c, lanes, 12, int64(700+lanes), 3)
	}
}

// TestCompiledMatchesPackedBenchgen runs the battery over exactly the
// randomized netlists cmd/benchgen emits (-family random:<seed>):
// generate, serialize to .bench text, reparse, and diff the reparsed
// circuit — so the compiled backend is checked against the interpreter
// on freshly parsed external netlists, not only on in-memory generator
// output.
func TestCompiledMatchesPackedBenchgen(t *testing.T) {
	for seed := uint32(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("random%d", seed), func(t *testing.T) {
			t.Parallel()
			gen, err := bench89.Generate(bench89.RandomSignature(seed))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := netlist.WriteBench(&buf, gen); err != nil {
				t.Fatal(err)
			}
			c, err := netlist.ParseBenchString(gen.Name, buf.String())
			if err != nil {
				t.Fatal(err)
			}
			lanes := 32 + int(seed)*29 // spans sub-word and multi-word widths
			diffCompiledPacked(t, c, lanes, 16, int64(seed)*977+5, int64(seed)+55)
		})
	}
}

// TestPropertyCompiledMatchesPacked is the central compiler property
// over seeded random netlists: any generated circuit, any mixed
// hidden/sampled trajectory, every lane bit-identical to the
// interpreter.
func TestPropertyCompiledMatchesPacked(t *testing.T) {
	check := func(seed uint32) bool {
		sig := randomSignature(seed)
		c, err := bench89.Generate(sig)
		if err != nil {
			t.Logf("seed %d: generate: %v", seed, err)
			return false
		}
		lanes := 1 + int(seed%uint32(2*MaxLanes+5))
		diffCompiledPacked(t, c, lanes, 14, int64(seed)*3000+17, int64(seed))
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}
