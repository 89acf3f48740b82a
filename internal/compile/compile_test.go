package compile_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench89"
	"repro/internal/compile"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// randomSignature mirrors the sim package's generator-signature helper.
func randomSignature(seed uint32) bench89.Signature {
	rng := rand.New(rand.NewSource(int64(seed)))
	pi := 3 + rng.Intn(8)
	po := 1 + rng.Intn(6)
	ff := 1 + rng.Intn(16)
	gates := 1 + 3*ff + po + rng.Intn(120)
	return bench89.Signature{
		Name:    fmt.Sprintf("rnd%d", seed),
		Inputs:  pi,
		Outputs: po,
		Latches: ff,
		Gates:   gates,
	}
}

// checkUnitExact compares both programs of a compiled Unit against the
// interpreted packed settle over `trials` random packed states at word
// width w: Full must reproduce every node word, Step every latch D
// word.
func checkUnitExact(t *testing.T, c *netlist.Circuit, w, trials int, seed int64) {
	t.Helper()
	u := compile.Compile(c)
	pz := sim.NewPackedZeroDelay(c)
	n := c.NumNodes()
	ref := make([]uint64, n)
	pins := make([]uint64, len(c.Inputs))
	q := make([]uint64, len(c.Latches))
	refD := make([]uint64, len(c.Latches))

	full := make([]uint64, u.Full.Slots*w)
	step := make([]uint64, u.Step.Slots*w)
	u.Full.InitConsts(full, w)
	u.Step.InitConsts(step, w)
	wide := func(file []uint64, rows []int32, src []uint64) {
		for i, r := range rows {
			for j := 0; j < w; j++ {
				// Replicate the 64-lane word into every lane word; lane
				// identity makes per-word comparison against the packed
				// reference valid at any width.
				file[int(r)*w+j] = src[i]
			}
		}
	}

	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		for i := range pins {
			pins[i] = rng.Uint64()
		}
		for i := range q {
			q[i] = rng.Uint64()
		}
		pz.Settle(ref, pins, q)
		pz.NextState(ref, refD)

		wide(full, u.Full.In, pins)
		wide(full, u.Full.Q, q)
		u.Full.Exec(full, w)
		for i := 0; i < n; i++ {
			for j := 0; j < w; j++ {
				if full[i*w+j] != ref[i] {
					t.Fatalf("trial %d: Full node %s word %d = %#x, interpreter %#x",
						trial, c.Nodes[i].Name, j, full[i*w+j], ref[i])
				}
			}
		}
		for i, d := range u.Full.D {
			for j := 0; j < w; j++ {
				if full[int(d)*w+j] != refD[i] {
					t.Fatalf("trial %d: Full D[%d] = %#x, interpreter %#x", trial, i, full[int(d)*w+j], refD[i])
				}
			}
		}

		wide(step, u.Step.In, pins)
		wide(step, u.Step.Q, q)
		u.Step.Exec(step, w)
		for i, d := range u.Step.D {
			for j := 0; j < w; j++ {
				if step[int(d)*w+j] != refD[i] {
					t.Fatalf("trial %d: Step D[%d] word %d = %#x, interpreter %#x",
						trial, i, j, step[int(d)*w+j], refD[i])
				}
			}
		}
	}
}

// TestUnitExactBench89 checks compiled-vs-interpreted exactness on
// every bench89 circuit at 1-, 4- and 8-word widths (8 words take the
// run-batched dispatcher).
func TestUnitExactBench89(t *testing.T) {
	for _, name := range bench89.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			c := bench89.MustGet(name)
			checkUnitExact(t, c, 1, 8, 11)
			checkUnitExact(t, c, 4, 3, 13)
			checkUnitExact(t, c, 8, 2, 17)
		})
	}
}

// TestUnitExactRandom checks exactness on seeded random netlists, which
// reach degenerate shapes (constant cones, buffer chains, multi-level
// fanout) the curated benchmarks miss.
func TestUnitExactRandom(t *testing.T) {
	for seed := uint32(0); seed < 40; seed++ {
		c, err := bench89.Generate(randomSignature(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkUnitExact(t, c, 1, 6, int64(seed))
	}
}

// TestStepProgramShrinks asserts the Step program actually optimizes:
// on every bench89 circuit it must need no more instructions than Full
// (it restricts to the latch cone and fuses chains), and on at least
// one circuit strictly fewer.
func TestStepProgramShrinks(t *testing.T) {
	shrank := false
	for _, name := range bench89.Names() {
		c := bench89.MustGet(name)
		u := compile.Compile(c)
		fs, ss := u.Full.Stats(), u.Step.Stats()
		if ss.Insts > fs.Insts {
			t.Errorf("%s: Step has %d insts, Full %d", name, ss.Insts, fs.Insts)
		}
		if ss.Insts < fs.Insts {
			shrank = true
		}
		if ss.Slots > fs.Slots {
			t.Errorf("%s: Step uses %d slots, Full %d", name, ss.Slots, fs.Slots)
		}
	}
	if !shrank {
		t.Error("Step never produced a smaller program than Full on any bench89 circuit")
	}
}

// levelTestCircuits returns every bench89 circuit plus seeded random
// netlists, whose level structure is much more irregular.
func levelTestCircuits(t *testing.T) []*netlist.Circuit {
	var cs []*netlist.Circuit
	for _, name := range bench89.Names() {
		cs = append(cs, bench89.MustGet(name))
	}
	for seed := uint32(0); seed < 12; seed++ {
		c, err := bench89.Generate(randomSignature(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cs = append(cs, c)
	}
	return cs
}

// TestLevelsNondecreasing pins the compiler's level-contiguous emission
// contract: every instruction has a level entry, and the level sequence
// never decreases.
func TestLevelsNondecreasing(t *testing.T) {
	check := func(name string, p *compile.Program) {
		lv := p.Levels()
		if len(lv) != p.NumInsts() {
			t.Fatalf("%s: %d level entries for %d instructions", name, len(lv), p.NumInsts())
		}
		for i := 1; i < len(lv); i++ {
			if lv[i] < lv[i-1] {
				t.Fatalf("%s: level drops %d -> %d at instruction %d", name, lv[i-1], lv[i], i)
			}
		}
	}
	for _, c := range levelTestCircuits(t) {
		u := compile.Compile(c)
		check(c.Name+"/full", u.Full)
		check(c.Name+"/step", u.Step)
	}
}

// TestLevelsOperandsStrictlyLower pins the property that makes the
// compiler's opcode sort legal: within one level run no row is both
// read and written, in either order, and no row is written twice, so
// the run's instructions may execute in any order. It also checks that
// the compiler emitted each run sorted by opcode.
func TestLevelsOperandsStrictlyLower(t *testing.T) {
	check := func(name string, p *compile.Program) {
		insts := p.Insts()
		for lo := 0; lo < len(insts); {
			hi := lo + 1
			for hi < len(insts) && insts[hi].Level == insts[lo].Level {
				hi++
			}
			run := insts[lo:hi]
			written := make(map[int32]int) // row -> writing instruction
			read := make(map[int32]int)    // row -> first reading instruction
			for i, in := range run {
				if i > 0 && in.Op < run[i-1].Op {
					t.Fatalf("%s: level %d run not opcode-sorted at instruction %d", name, in.Level, lo+i)
				}
				if j, ok := written[in.Dst]; ok {
					t.Fatalf("%s: level %d: row %d written by instructions %d and %d", name, in.Level, in.Dst, lo+j, lo+i)
				}
				written[in.Dst] = i
				for _, r := range in.Reads {
					if _, ok := read[r]; !ok {
						read[r] = i
					}
				}
			}
			for r, i := range read {
				if j, ok := written[r]; ok {
					t.Fatalf("%s: level %d: row %d read by instruction %d and written by instruction %d",
						name, run[0].Level, r, lo+i, lo+j)
				}
			}
			lo = hi
		}
	}
	for _, c := range levelTestCircuits(t) {
		u := compile.Compile(c)
		check(c.Name+"/full", u.Full)
		check(c.Name+"/step", u.Step)
	}
}

// TestBlockedExecExact checks Exec against ExecReference from identical
// random register files, over both programs of several circuits at the
// 1-word (per-instruction dispatch) and 8-word (run-batched dispatch)
// widths. Every row must match, temporaries included. The subtest names
// keep the 1 GiB budget of the cache-blocked partition this test used to
// sweep: at that budget every program was one direct segment in
// opcode-sorted order, which is the single form Exec now runs.
func TestBlockedExecExact(t *testing.T) {
	const budget = 1 << 30
	for _, name := range []string{"s298", "s1423", "s5378"} {
		u := compile.Compile(bench89.MustGet(name))
		for _, w := range []int{1, 8} {
			for _, pc := range []struct {
				tag string
				p   *compile.Program
			}{{"full", u.Full}, {"step", u.Step}} {
				w, p := w, pc.p
				t.Run(fmt.Sprintf("%s/%s/w%d/budget%d", name, pc.tag, w, budget), func(t *testing.T) {
					rng := rand.New(rand.NewSource(int64(budget) + int64(w)))
					for trial := 0; trial < 4; trial++ {
						ref := make([]uint64, p.Slots*w)
						for i := range ref {
							ref[i] = rng.Uint64()
						}
						p.InitConsts(ref, w)
						got := append([]uint64(nil), ref...)
						p.ExecReference(ref, w)
						p.Exec(got, w)
						for i := range ref {
							if got[i] != ref[i] {
								t.Fatalf("trial %d: row %d word %d: Exec %#x, reference %#x",
									trial, i/w, i%w, got[i], ref[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestEmptyProgram exercises the zero-instruction edge: a circuit with
// no gates compiles to empty programs, and Exec is a no-op at every
// width.
func TestEmptyProgram(t *testing.T) {
	c, err := netlist.ParseBenchString("tiny", "INPUT(a)\nOUTPUT(a)\n")
	if err != nil {
		t.Fatal(err)
	}
	u := compile.Compile(c)
	for _, p := range []*compile.Program{u.Full, u.Step} {
		if p.NumInsts() != 0 {
			t.Fatalf("%d instructions for a gate-free circuit", p.NumInsts())
		}
		for _, w := range []int{1, 8} {
			vals := make([]uint64, p.Slots*w)
			p.Exec(vals, w)
		}
	}
}

// TestForCachesUnit: For compiles once and caches on the circuit.
func TestForCachesUnit(t *testing.T) {
	c := bench89.S27()
	u1 := compile.For(c)
	u2 := compile.For(c)
	if u1 != u2 {
		t.Error("For did not return the cached Unit")
	}
}
