package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

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
	observer  bool // an observer on both sessions (general-delay only)
}

var trajModes = []trajMode{
	{name: "zd", zeroDelay: true},
	{name: "zd-counts", zeroDelay: true, counts: true},
	{name: "gd"},
	{name: "gd-counts", counts: true},
	{name: "cov", cov: true},
	{name: "cov-counts", cov: true, counts: true},
	{name: "gd-observer", counts: true, observer: true},
	{name: "cov-observer", cov: true, observer: true},
	{name: "zd-cov", zeroDelay: true, cov: true, counts: true},
}

// trajPair builds a ScalarSession and a compiled Session over twin
// sources in the given mode: the scalar oracle observes with
// ZeroDelayToggle or with an EventDriven over the delay table the
// compiled session is built with. The compiled session settles a
// Collect of several batches beside its trajectory (pool 2) wherever
// the host runs it.
func trajPair(c *netlist.Circuit, m trajMode, seed int64) (*ScalarSession, *Session) {
	weights := power.NewModel(c, power.DefaultCapModel(), power.DefaultSupply()).Weights()
	src := func() vectors.Source { return vectors.NewIID(len(c.Inputs), 0.5, seed) }
	var s *ScalarSession
	var tr *Session
	if m.zeroDelay {
		s, tr = NewScalarSession(c, NewZeroDelayToggle(c), src(), weights), NewSession(c, nil, src(), weights)
	} else {
		dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
		s, tr = NewScalarSession(c, NewEventDriven(c, dt), src(), weights), NewSession(c, dt, src(), weights)
	}
	tr.pool = 2
	return s, tr
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
// counters, settled values after the hidden runs and, in an observer
// mode, the same transition stream from the compiled session's
// observer (SetObserver) as from the scalar EventDriven's, over partial
// and full settle batches, Collects settled beside the trajectory and
// single StepSampled cycles alike.
func diffTrajectory(t *testing.T, c *netlist.Circuit, m trajMode, seed int64, warmup int, steps []trajStep) {
	t.Helper()
	s, tr := trajPair(c, m, seed)
	var sObs, tObs transitionHash
	if m.observer {
		observe(s, tr, &sObs, &tObs)
	}
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
		sx, sc, _ := s.Collect(context.Background(), st.k, st.n, nil, sCov, sCnt)
		tx, tc, _ := tr.Collect(context.Background(), st.k, st.n, nil, tCov, tCnt)
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

// trajGrid is every (k, n) of the battery: intervals 0, 1, 3 and 7,
// and sample counts on both sides of half a settle batch (31, 32, 33),
// of one (63, 64, 65) and of two (128), a single sample and a full
// 320-sample trial of five batches.
func trajGrid() []trajStep {
	var out []trajStep
	for _, k := range []int{0, 1, 3, 7} {
		for _, n := range []int{1, 31, 32, 33, 63, 64, 65, 128, 320} {
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
// covers every k, one sample, a part batch and Collects of two batches,
// one of them part or both full; past ten thousand nodes the full
// 320-sample trial is left out.
func TestTrajectoryMatchesSessionBench89(t *testing.T) {
	for _, name := range bench89.AllNames() {
		name := name
		c := bench89.MustGet(name)
		steps, warmup := trajGrid(), 64
		switch {
		case c.NumNodes() > 10000:
			steps, warmup = []trajStep{{0, 65}, {1, 1}, {3, 31}, {7, 1}, {1, 128}}, 16
		case c.NumNodes() > 1000:
			steps, warmup = []trajStep{{0, 65}, {1, 1}, {3, 31}, {7, 1}, {1, 128}, {0, 320}}, 16
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
// Collect calls, one settle batch at a time or at and away from batch
// boundaries, yields the same samples, covariates, counts and cycle
// counters as one multi-batch call, settled beside the trajectory under
// general delay. The split session runs at pool 1, so it never builds a
// helper, and a zero-delay session builds none at either pool.
func TestTrajectoryCollectContinues(t *testing.T) {
	c := bench89.MustGet("s1494")
	ctx := context.Background()
	for _, m := range trajModes {
		if m.observer {
			continue
		}
		for _, split := range [][]int{{64, 64, 64, 64, 64}, {1, 32, 30, 37, 64, 156}} {
			_, whole := trajPair(c, m, 11)
			_, parts := trajPair(c, m, 11)
			parts.pool = 1
			var cw, cs []float64
			var nw, ns []uint64
			if m.cov {
				cw, cs = []float64{}, []float64{}
			}
			if m.counts {
				nw, ns = make([]uint64, c.NumNodes()), make([]uint64, c.NumNodes())
			}
			xw, cw, _ := whole.Collect(ctx, 2, 320, nil, cw, nw)
			var xs []float64
			for _, n := range split {
				xs, cs, _ = parts.Collect(ctx, 2, n, xs, cs, ns)
			}
			where := fmt.Sprintf("%s split %v", m.name, split)
			if len(xw) != 320 || len(xs) != 320 || len(cw) != len(cs) {
				t.Fatalf("%s: %d and %d samples, %d and %d covariates", where, len(xw), len(xs), len(cw), len(cs))
			}
			for i := range xw {
				if math.Float64bits(xw[i]) != math.Float64bits(xs[i]) {
					t.Fatalf("%s sample %d: split %v, whole %v", where, i, xs[i], xw[i])
				}
			}
			for i := range cw {
				if math.Float64bits(cw[i]) != math.Float64bits(cs[i]) {
					t.Fatalf("%s covariate %d: split %v, whole %v", where, i, cs[i], cw[i])
				}
			}
			for i := range nw {
				if nw[i] != ns[i] {
					t.Fatalf("%s node %d: count %d split, %d whole", where, i, ns[i], nw[i])
				}
			}
			if whole.HiddenCycles != parts.HiddenCycles || whole.SampledCycles != parts.SampledCycles {
				t.Fatalf("%s: cycle counters diverged", where)
			}
			if (whole.helper != nil) == m.zeroDelay || parts.helper != nil {
				t.Fatalf("%s: helper unit built at pool 2 %v, at pool 1 %v; want only at pool 2 under general delay", where,
					whole.helper != nil, parts.helper != nil)
			}
		}
	}
}

// TestCollectCancelBetweenBatches: a context that ends while a
// multi-batch Collect records its second batch stops the collection
// before the third, in either delay model and with a helper settling
// beside the trajectory or not. Collect returns the context's error and
// dst at its length on entry, its helper joined, and the session has
// run exactly the two batches' cycles, as the scalar oracle has.
func TestCollectCancelBetweenBatches(t *testing.T) {
	c := bench89.MustGet("s298")
	const k = 2
	for _, m := range []trajMode{trajModes[0], trajModes[3], trajModes[4]} {
		for _, pool := range []int{1, 2} {
			s, tr := trajPair(c, m, 5)
			tr.pool = pool
			for _, col := range []interface {
				Collect(context.Context, int, int, []float64, []float64, []uint64) ([]float64, []float64, error)
			}{s, tr} {
				ctx, cancel := context.WithCancel(context.Background())
				hook := &cancelSource{Source: vectors.NewIID(len(c.Inputs), 0.5, 5), at: (pairsPerSettle + 3) * (k + 1), cancel: cancel}
				switch col := col.(type) {
				case *ScalarSession:
					col.src = hook
				case *Session:
					col.src = hook
				}
				var cov []float64
				if m.cov {
					cov = []float64{}
				}
				dst := []float64{7}
				dst, cov, err := col.Collect(ctx, k, 5*pairsPerSettle, dst, cov, nil)
				cancel()
				if !errors.Is(err, context.Canceled) || len(dst) != 1 || len(cov) != 0 {
					t.Fatalf("%s pool=%d %T: error %v with %d samples and %d covariates, want context.Canceled and the entry lengths", m.name, pool, col, err, len(dst), len(cov))
				}
			}
			if tr.SampledCycles != 2*pairsPerSettle || tr.HiddenCycles != 2*pairsPerSettle*k ||
				s.SampledCycles != tr.SampledCycles || s.HiddenCycles != tr.HiddenCycles {
				t.Fatalf("%s pool=%d: cycles (%d, %d), scalar (%d, %d), want two batches'", m.name, pool,
					tr.HiddenCycles, tr.SampledCycles, s.HiddenCycles, s.SampledCycles)
			}
		}
	}
}

// cancelSource is a source that calls cancel once it has drawn `at`
// patterns.
type cancelSource struct {
	vectors.Source
	n, at  int
	cancel context.CancelFunc
}

func (s *cancelSource) Next(dst []bool) {
	if s.n++; s.n == s.at {
		s.cancel()
	}
	s.Source.Next(dst)
}

// TestCollectCallerPanicJoinsHelper: a panic on the caller's goroutine
// while the helper waits for the next batch reaches the caller's
// recover as it was raised, and Collect has joined its helper before:
// leaving early closes the queue the helper waits on. The trajectory's
// source panics recording the third batch, once the helper has settled
// the first two and blocks on the queue.
func TestCollectCallerPanicJoinsHelper(t *testing.T) {
	c := bench89.MustGet("s298")
	const k = 1
	for _, m := range []trajMode{trajModes[2], trajModes[4]} {
		_, tr := trajPair(c, m, 3)
		tr.src = &idlePanicSource{Source: vectors.NewIID(len(c.Inputs), 0.5, 3), at: (2*pairsPerSettle + 3) * (k + 1)}
		done := make(chan any, 1)
		go func() {
			defer func() { done <- recover() }()
			tr.Collect(context.Background(), k, 5*pairsPerSettle, nil, nil, nil)
		}()
		select {
		case got := <-done:
			if got != "trajectory" {
				t.Fatalf("%s: recovered %#v, want the source's panic", m.name, got)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: Collect did not return after its trajectory panicked", m.name)
		}
		if left := helperStacks(); left != "" {
			t.Fatalf("%s: helper still running after Collect returned:\n%s", m.name, left)
		}
	}
}

// idlePanicSource is a source that, at its at'th draw, waits until a
// Collect helper is blocked on its queue and then panics.
type idlePanicSource struct {
	vectors.Source
	n, at int
}

func (s *idlePanicSource) Next(dst []bool) {
	if s.n++; s.n == s.at {
		for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			if strings.Contains(helperStacks(), "[chan receive") {
				panic("trajectory")
			}
		}
		panic("the helper never waited for a batch")
	}
	s.Source.Next(dst)
}

// helperStacks returns the stacks of the goroutines that settle a
// Collect's batches beside its trajectory, header lines included.
func helperStacks() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "repro/internal/sim.(*Session).startHelper.func") {
			out = append(out, g)
		}
	}
	return strings.Join(out, "\n\n")
}

// TestCollectHelperPanicReachesCaller: a panic on the goroutine that
// settles a Collect's batches beside the trajectory is raised again on
// the caller's goroutine as a *GoroutinePanic, once the helper has
// returned. The helper settles the first batch before any other, so a
// helper unit with no register file to settle in panics there, whatever
// the scheduling.
func TestCollectHelperPanicReachesCaller(t *testing.T) {
	c := bench89.MustGet("s298")
	for _, m := range []trajMode{trajModes[2], trajModes[4]} {
		_, tr := trajPair(c, m, 9)
		tr.helper = &settleUnit{}
		var got any
		func() {
			defer func() { got = recover() }()
			tr.Collect(context.Background(), 1, 3*pairsPerSettle, nil, nil, nil)
		}()
		p, ok := got.(*GoroutinePanic)
		if !ok {
			t.Fatalf("%s: recovered %#v, want a *GoroutinePanic", m.name, got)
		}
		if _, ok := p.Value.(runtime.Error); !ok || !strings.Contains(p.Error(), "startHelper") {
			t.Fatalf("%s: carried %v, want the helper's runtime error and stack", m.name, p)
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
		x, _, _ := tr.Collect(context.Background(), 1, 70, nil, nil, nil)
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
	s.Collect(context.Background(), 1, 40, nil, nil, nil)
	tr.Collect(context.Background(), 1, 40, nil, nil, nil)
	if tObs.n == 0 || tObs != sObs {
		t.Fatalf("observed %d transitions (hash %x), scalar %d (hash %x)", tObs.n, tObs.h, sObs.n, sObs.h)
	}
	seen := tObs
	tr.SetObserver(nil)
	s.engine.(*EventDriven).SetObserver(nil)
	s.Collect(context.Background(), 1, 40, nil, nil, nil)
	tr.Collect(context.Background(), 1, 40, nil, nil, nil)
	tr.StepSampled(nil)
	s.StepSampled(nil)
	if tObs != seen {
		t.Fatalf("detached observer saw %d more transitions", tObs.n-seen.n)
	}
	observe(s, tr, &sObs, &tObs)
	s.Collect(context.Background(), 0, 33, nil, nil, nil)
	tr.Collect(context.Background(), 0, 33, nil, nil, nil)
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
