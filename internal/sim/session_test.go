package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/bench89"
	"repro/internal/compile"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/power"
	"repro/internal/vectors"
)

// trajMode is one observation mode of the session battery.
type trajMode struct {
	name      string
	zeroDelay bool // zero-delay session (nil table); else event-driven
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

// trajPair builds a ScalarSession and a compiled Session over twin
// sources in the given mode: the scalar oracle observes with
// ZeroDelayToggle or with an EventDriven over the delay table the
// compiled session is built with.
func trajPair(c *netlist.Circuit, m trajMode, seed int64) (*ScalarSession, *Session) {
	weights := power.NewModel(c, power.DefaultCapModel(), power.DefaultSupply()).Weights()
	src := func() vectors.Source { return vectors.NewIID(len(c.Inputs), 0.5, seed) }
	if m.zeroDelay {
		return NewScalarSession(c, NewZeroDelayToggle(c), src(), weights), NewSession(c, nil, src(), weights)
	}
	dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
	return NewScalarSession(c, NewEventDriven(c, dt), src(), weights), NewSession(c, dt, src(), weights)
}

// transitionHash folds an observer's transition stream — node, time
// within the cycle, new value — into a running hash.
type transitionHash struct {
	h uint64
	n int
}

// add is the observer callback.
func (th *transitionHash) add(id netlist.NodeID, at delay.Picoseconds, v bool) {
	th.h = (th.h ^ uint64(id)<<32 ^ uint64(at)<<1 ^ b2u(v)) * 1099511628211
	th.n++
}

// observe installs sObs as the observer of the scalar oracle's
// EventDriven and tObs with the compiled session's SetObserver; a
// zero-delay pair has no transitions to observe.
func observe(s *ScalarSession, tr *Session, sObs, tObs *transitionHash) {
	if ed, ok := s.engine.(*EventDriven); ok {
		ed.SetObserver(sObs.add)
		tr.SetObserver(tObs.add)
	}
}

// trajStep is one Collect call of the battery.
type trajStep struct{ k, n int }

// diffTrajectory drives a ScalarSession and a compiled Session through
// the same warm-up and Collect calls, each followed by one StepSampled
// and a hidden run, then through a few SetState+SetPins jumps each
// observed by StepSampled (the FSM-analysis estimator's cycle). It
// requires bit-identical samples, covariates, per-node counts, cycle
// counters, settled values after the hidden runs and, under general
// delay, the same transition stream from the compiled session's
// observer (SetObserver) as from the scalar EventDriven's, over partial
// and full settle batches and single StepSampled cycles alike.
func diffTrajectory(t *testing.T, c *netlist.Circuit, m trajMode, seed int64, warmup int, steps []trajStep) {
	t.Helper()
	s, tr := trajPair(c, m, seed)
	var sObs, tObs transitionHash
	observe(s, tr, &sObs, &tObs)
	s.StepHiddenN(warmup)
	tr.StepHiddenN(warmup)
	var sCov, tCov []float64
	var sCnt, tCnt []uint64
	if m.counts {
		sCnt = make([]uint64, c.NumNodes())
		tCnt = make([]uint64, c.NumNodes())
	}
	check := func(where string) {
		t.Helper()
		for i := range sCnt {
			if sCnt[i] != tCnt[i] {
				t.Fatalf("%s: node %s count %d, scalar %d", where, c.Nodes[i].Name, tCnt[i], sCnt[i])
			}
		}
		if s.HiddenCycles != tr.HiddenCycles || s.SampledCycles != tr.SampledCycles {
			t.Fatalf("%s: cycles (%d, %d), scalar (%d, %d)", where,
				tr.HiddenCycles, tr.SampledCycles, s.HiddenCycles, s.SampledCycles)
		}
		if sObs != tObs {
			t.Fatalf("%s: observed %d transitions (hash %x), scalar %d (hash %x)", where, tObs.n, tObs.h, sObs.n, sObs.h)
		}
	}
	stepSampled := func(where string) {
		t.Helper()
		if x, want := tr.StepSampled(tCnt), s.StepSampled(sCnt); math.Float64bits(x) != math.Float64bits(want) {
			t.Fatalf("%s: StepSampled %v, scalar %v", where, x, want)
		}
		check(where)
	}
	for call, st := range steps {
		if m.cov {
			sCov, tCov = []float64{}, []float64{}
		}
		sx, sc := s.Collect(st.k, st.n, nil, sCov, sCnt)
		tx, tc := tr.Collect(st.k, st.n, nil, tCov, tCnt)
		where := fmt.Sprintf("call %d (k=%d, n=%d)", call, st.k, st.n)
		if len(sx) != st.n || len(tx) != st.n {
			t.Fatalf("%s: %d scalar samples, %d compiled samples", where, len(sx), len(tx))
		}
		for i := range sx {
			if math.Float64bits(sx[i]) != math.Float64bits(tx[i]) {
				t.Fatalf("%s sample %d: compiled %v, scalar %v", where, i, tx[i], sx[i])
			}
		}
		if m.cov {
			if len(sc) != st.n || len(tc) != st.n {
				t.Fatalf("%s: %d scalar covariates, %d compiled covariates", where, len(sc), len(tc))
			}
			for i := range sc {
				if math.Float64bits(sc[i]) != math.Float64bits(tc[i]) {
					t.Fatalf("%s covariate %d: compiled %v, scalar %v", where, i, tc[i], sc[i])
				}
			}
		} else if tc != nil {
			t.Fatalf("%s: compiled session returned covariates it was not asked for", where)
		}
		check(where)
		stepSampled(where + " then StepSampled")
		s.StepHiddenN(st.k)
		tr.StepHiddenN(st.k)
		sv, tv := s.Values(), tr.Values()
		for i := range sv {
			if sv[i] != tv[i] {
				t.Fatalf("%s then %d hidden: node %s settles to %v, scalar %v", where, st.k, c.Nodes[i].Name, tv[i], sv[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	q := make([]bool, len(c.Latches))
	pins := make([]bool, len(c.Inputs))
	for jump := 0; jump < 3; jump++ {
		for i := range q {
			q[i] = rng.Intn(2) == 1
		}
		for i := range pins {
			pins[i] = rng.Intn(2) == 1
		}
		s.SetState(q)
		s.SetPins(pins)
		tr.SetState(q)
		tr.SetPins(pins)
		stepSampled(fmt.Sprintf("jump %d", jump))
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

// TestTrajectoryMatchesSessionBench89 is the compiled session's
// differential battery: on every bench89 circuit, in every observation
// mode, the compiled Session and the ScalarSession oracle produce the
// same bits.
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

// TestTrajectoryConcurrent: sessions over one circuit share its
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

// TestSessionSetObserverDetaches: SetObserver(nil) stops the calls, and
// a session observed again reports the scalar oracle's stream from
// there on. A zero-delay session refuses an observer.
func TestSessionSetObserverDetaches(t *testing.T) {
	c := bench89.MustGet("s298")
	s, tr := trajPair(c, trajModes[2], 21)
	var sObs, tObs transitionHash
	observe(s, tr, &sObs, &tObs)
	s.Collect(1, 40, nil, nil, nil)
	tr.Collect(1, 40, nil, nil, nil)
	if tObs.n == 0 || tObs != sObs {
		t.Fatalf("observed %d transitions (hash %x), scalar %d (hash %x)", tObs.n, tObs.h, sObs.n, sObs.h)
	}
	seen := tObs
	tr.SetObserver(nil)
	s.engine.(*EventDriven).SetObserver(nil)
	s.Collect(1, 40, nil, nil, nil)
	tr.Collect(1, 40, nil, nil, nil)
	tr.StepSampled(nil)
	s.StepSampled(nil)
	if tObs != seen {
		t.Fatalf("detached observer saw %d more transitions", tObs.n-seen.n)
	}
	observe(s, tr, &sObs, &tObs)
	s.Collect(0, 33, nil, nil, nil)
	tr.Collect(0, 33, nil, nil, nil)
	if tObs.n == seen.n || tObs != sObs {
		t.Fatalf("reattached: observed %d transitions (hash %x), scalar %d (hash %x)", tObs.n, tObs.h, sObs.n, sObs.h)
	}

	_, zd := trajPair(c, trajModes[0], 21)
	zd.SetObserver(nil)
	defer func() {
		if recover() == nil {
			t.Fatal("SetObserver on a zero-delay session did not panic")
		}
	}()
	zd.SetObserver(tObs.add)
}

// TestSessionStepSampledNoAlloc: StepSampled settles its one pair into
// a buffer the session owns, in either mode. A warm-up lets the lane
// engine grow its event storage first.
func TestSessionStepSampledNoAlloc(t *testing.T) {
	c := bench89.MustGet("s298")
	for _, m := range []trajMode{trajModes[0], trajModes[2]} {
		_, tr := trajPair(c, m, 3)
		for i := 0; i < 1000; i++ {
			tr.StepSampled(nil)
		}
		if n := testing.AllocsPerRun(100, func() { tr.StepSampled(nil) }); n != 0 {
			t.Errorf("%s: StepSampled allocates %v times per call", m.name, n)
		}
	}
}
