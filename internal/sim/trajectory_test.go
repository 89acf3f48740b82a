package sim

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/bench89"
	"repro/internal/compile"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/vectors"
)

// trajMode is one observation mode of the trajectory battery.
type trajMode struct {
	name      string
	zeroDelay bool // ZeroDelayToggle engine; else event-driven
	cov       bool // covariate pairs (StepSampledPair)
	counts    bool // per-node transition counts
}

var trajModes = []trajMode{
	{name: "zd", zeroDelay: true},
	{name: "zd-counts", zeroDelay: true, counts: true},
	{name: "gd"},
	{name: "gd-counts", counts: true},
	{name: "cov", cov: true},
	{name: "cov-counts", cov: true, counts: true},
}

// trajPair builds a scalar Session and a Trajectory over twin sources
// and twin engines of the given mode.
func trajPair(c *netlist.Circuit, m trajMode, seed int64) (*Session, *Trajectory) {
	weights := power.NewModel(c, power.DefaultCapModel(), power.DefaultSupply()).Weights()
	dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	engine := func() PowerEngine {
		if m.zeroDelay {
			return NewZeroDelayToggle(c)
		}
		return NewEventDriven(c, dt)
	}
	src := func() vectors.Source { return vectors.NewIID(len(c.Inputs), 0.5, seed) }
	return NewSessionEngine(c, engine(), src(), weights), NewTrajectory(c, engine(), src(), weights)
}

// trajStep is one Collect call of the battery.
type trajStep struct{ k, n int }

// diffTrajectory drives a Session and a Trajectory through the same
// warm-up and Collect calls and requires bit-identical samples,
// covariates, per-node counts and cycle counters after every call.
func diffTrajectory(t *testing.T, c *netlist.Circuit, m trajMode, seed int64, warmup int, steps []trajStep) {
	t.Helper()
	s, tr := trajPair(c, m, seed)
	s.StepHiddenN(warmup)
	tr.StepHiddenN(warmup)
	var sCov, tCov []float64
	var sCnt, tCnt []uint64
	if m.counts {
		sCnt = make([]uint64, c.NumNodes())
		tCnt = make([]uint64, c.NumNodes())
	}
	for call, st := range steps {
		if m.cov {
			sCov, tCov = []float64{}, []float64{}
		}
		sx, sc := s.Collect(st.k, st.n, nil, sCov, sCnt)
		tx, tc := tr.Collect(st.k, st.n, nil, tCov, tCnt)
		where := fmt.Sprintf("call %d (k=%d, n=%d)", call, st.k, st.n)
		if len(sx) != st.n || len(tx) != st.n {
			t.Fatalf("%s: %d session samples, %d trajectory samples", where, len(sx), len(tx))
		}
		for i := range sx {
			if math.Float64bits(sx[i]) != math.Float64bits(tx[i]) {
				t.Fatalf("%s sample %d: trajectory %v, session %v", where, i, tx[i], sx[i])
			}
		}
		if m.cov {
			if len(sc) != st.n || len(tc) != st.n {
				t.Fatalf("%s: %d session covariates, %d trajectory covariates", where, len(sc), len(tc))
			}
			for i := range sc {
				if math.Float64bits(sc[i]) != math.Float64bits(tc[i]) {
					t.Fatalf("%s covariate %d: trajectory %v, session %v", where, i, tc[i], sc[i])
				}
			}
		} else if tc != nil {
			t.Fatalf("%s: trajectory returned covariates it was not asked for", where)
		}
		for i := range sCnt {
			if sCnt[i] != tCnt[i] {
				t.Fatalf("%s: node %s count %d, session %d", where, c.Nodes[i].Name, tCnt[i], sCnt[i])
			}
		}
		if s.HiddenCycles != tr.HiddenCycles || s.SampledCycles != tr.SampledCycles {
			t.Fatalf("%s: cycles (%d, %d), session (%d, %d)", where,
				tr.HiddenCycles, tr.SampledCycles, s.HiddenCycles, s.SampledCycles)
		}
	}
}

// trajGrid is every (k, n) of the battery: intervals 0, 1, 3, 7 and
// sample counts on both sides of the settle batch (1, 31, 33) plus a
// full 320-sample trial.
func trajGrid() []trajStep {
	var out []trajStep
	for _, k := range []int{0, 1, 3, 7} {
		for _, n := range []int{1, 31, 33, 320} {
			out = append(out, trajStep{k, n})
		}
	}
	return out
}

// TestTrajectoryMatchesSessionBench89 is the trajectory's differential
// battery: on every bench89 circuit, in every observation mode, the
// compiled trajectory and the scalar session produce the same bits.
// Circuits past a thousand nodes run a diagonal of the grid that still
// covers every k and every n; past ten thousand nodes the full
// 320-sample trial is left out.
func TestTrajectoryMatchesSessionBench89(t *testing.T) {
	for _, name := range bench89.AllNames() {
		name := name
		c := bench89.MustGet(name)
		steps, warmup := trajGrid(), 64
		switch {
		case c.NumNodes() > 10000:
			steps, warmup = []trajStep{{0, 33}, {1, 1}, {3, 31}, {7, 1}}, 16
		case c.NumNodes() > 1000:
			steps, warmup = []trajStep{{0, 33}, {1, 1}, {3, 31}, {7, 1}, {0, 320}}, 16
		}
		for _, m := range trajModes {
			m := m
			t.Run(name+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				if testing.Short() && c.NumNodes() > 10000 {
					t.Skip("large circuit in -short mode")
				}
				diffTrajectory(t, c, m, bench89SeedBase(name), warmup, steps)
			})
		}
	}
}

// TestTrajectoryMatchesSessionNoLatches covers a purely combinational
// netlist: the Step program is empty and the state is the input
// pattern alone.
func TestTrajectoryMatchesSessionNoLatches(t *testing.T) {
	c, err := netlist.ParseBenchString("comb", "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(z)\n"+
		"x = NAND(a, b)\ny = XOR(x, c)\nz = NOR(y, a)\nk = CONST1()\nw = AND(k, z)\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range trajModes {
		t.Run(m.name, func(t *testing.T) {
			diffTrajectory(t, c, m, 5, 3, trajGrid())
		})
	}
}

// TestTrajectoryCollectContinues: splitting a collection over several
// Collect calls, at and away from settle-batch boundaries, yields the
// same samples as one call.
func TestTrajectoryCollectContinues(t *testing.T) {
	c := bench89.MustGet("s1494")
	for _, m := range []trajMode{trajModes[0], trajModes[4]} {
		_, whole := trajPair(c, m, 11)
		_, split := trajPair(c, m, 11)
		var cw, cs []float64
		if m.cov {
			cw, cs = []float64{}, []float64{}
		}
		xw, cw := whole.Collect(2, 100, nil, cw, nil)
		var xs []float64
		for _, n := range []int{1, 32, 30, 37} {
			xs, cs = split.Collect(2, n, xs, cs, nil)
		}
		for i := range xw {
			if math.Float64bits(xw[i]) != math.Float64bits(xs[i]) {
				t.Fatalf("%s sample %d: split %v, whole %v", m.name, i, xs[i], xw[i])
			}
		}
		for i := range cw {
			if math.Float64bits(cw[i]) != math.Float64bits(cs[i]) {
				t.Fatalf("%s covariate %d: split %v, whole %v", m.name, i, cs[i], cw[i])
			}
		}
		if whole.HiddenCycles != split.HiddenCycles || whole.SampledCycles != split.SampledCycles {
			t.Fatalf("%s: cycle counters diverged", m.name)
		}
	}
}

// TestTrajectoryConcurrent: trajectories over one circuit share its
// compiled Unit, which executes read-only. Started together from
// several goroutines, they still match twins run one after another on a
// separate copy of the circuit.
func TestTrajectoryConcurrent(t *testing.T) {
	const n = 4
	collect := func(c *netlist.Circuit, g int) []float64 {
		_, tr := trajPair(c, trajModes[0], int64(g))
		x, _ := tr.Collect(1, 70, nil, nil, nil)
		return x
	}
	serial := bench89.MustGet("s1494")
	want := make([][]float64, n)
	for g := range want {
		want[g] = collect(serial, g)
	}
	shared := bench89.MustGet("s1494")
	compile.For(shared)
	got := make([][]float64, n)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = collect(shared, g)
		}(g)
	}
	wg.Wait()
	for g := range got {
		for i := range want[g] {
			if math.Float64bits(got[g][i]) != math.Float64bits(want[g][i]) {
				t.Fatalf("goroutine %d sample %d: %v, serial %v", g, i, got[g][i], want[g][i])
			}
		}
	}
}
