package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench89"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stopping"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// estimateShards runs EstimateParallelCtx, or
// EstimateParallelWithIntervalCtx at a non-nil interval, under a job
// trace, and returns the result with the shard count the trace's shard
// event reports.
func estimateShards(t *testing.T, tb *Testbench, factory vectors.Factory, seed int64, opts Options, interval *int) (Result, int, error) {
	t.Helper()
	tr := obs.NewTrace()
	ctx := obs.ContextWithTrace(context.Background(), tr)
	var (
		res Result
		err error
	)
	if interval == nil {
		res, err = EstimateParallelCtx(ctx, tb, factory, seed, opts)
	} else {
		res, err = EstimateParallelWithIntervalCtx(ctx, tb, factory, seed, opts, *interval)
	}
	if err != nil {
		return res, 0, err
	}
	for _, s := range tr.Spans() {
		for i := 0; s.Name == "shard" && i+1 < len(s.Attrs); i += 2 {
			if s.Attrs[i] == "shards" {
				n, err := strconv.Atoi(s.Attrs[i+1])
				return res, n, err
			}
		}
	}
	t.Fatal("the job's trace has no shard event with a shard count")
	return res, 0, nil
}

// requireLayouts fails unless the shard counts a layout test saw hold
// at least two different values, so the test compared layouts at all.
func requireLayouts(t *testing.T, label string, shards []int) {
	t.Helper()
	if len(slices.Compact(slices.Sorted(slices.Values(shards)))) < 2 {
		t.Errorf("%s: shard counts %v, want at least two layouts", label, shards)
	}
}

// TestEstimateParallelDeterministic: the same seeds give the same result,
// bit for bit, regardless of the shard layout — the fixed lane→seed
// mapping plus ordered merge make scheduling invisible. 200
// replications are four word rows, so the pool widths run them as 1, 2
// and 4 shards.
func TestEstimateParallelDeterministic(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 200
	var (
		ref    Result
		shards []int
	)
	for i, pool := range []int{1, 2, 7} {
		opts.pool = pool
		res, n, err := estimateShards(t, tb, factory, 42, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, n)
		if i == 0 {
			ref = res
			continue
		}
		if res.Power != ref.Power || res.SampleSize != ref.SampleSize ||
			res.Interval != ref.Interval || res.HalfWidth != ref.HalfWidth {
			t.Fatalf("pool=%d: result %v differs from pool=1 result %v", pool, res, ref)
		}
	}
	requireLayouts(t, "pools 1, 2, 7", shards)
	if ref.Power <= 0 {
		t.Fatalf("power = %g, want > 0", ref.Power)
	}
	if !ref.Converged {
		t.Fatal("did not converge")
	}
}

// TestEstimateParallelMatchesSerial: the parallel estimate agrees with
// the serial estimate within the accuracy specification (both converged
// to 5% at 0.99, so they must be within ~2x the relative error of each
// other with huge probability).
func TestEstimateParallelMatchesSerial(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()

	serial, err := Estimate(tb.NewSession(factory(7)), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Replications = 64
	par, err := EstimateParallel(tb, factory, 7, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !par.Converged {
		t.Fatal("parallel run did not converge")
	}
	rel := math.Abs(par.Power-serial.Power) / serial.Power
	if rel > 3*opts.Spec.RelErr {
		t.Fatalf("parallel %g W vs serial %g W: relative gap %.1f%% too large",
			par.Power, serial.Power, 100*rel)
	}
	if par.SampleSize < opts.SeqLen {
		t.Fatalf("sample size %d below the reused test sequence length", par.SampleSize)
	}
}

// TestEstimateParallelReplicationSharding: replication counts that do
// not divide evenly across shards or exceed one word still work and
// stay deterministic. A count of one word row or less runs as one
// shard at either pool width, general-delay as it is, and each count of
// several word rows as a different number of shards at the two widths.
func TestEstimateParallelReplicationSharding(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	for _, reps := range []int{1, 3, 64, 130} {
		opts := DefaultOptions()
		opts.Replications = reps
		opts.pool = 2
		a, two, err := estimateShards(t, tb, factory, 11, opts, nil)
		if err != nil {
			t.Fatalf("reps=%d: %v", reps, err)
		}
		opts.pool = 5
		b, five, err := estimateShards(t, tb, factory, 11, opts, nil)
		if err != nil {
			t.Fatalf("reps=%d: %v", reps, err)
		}
		if a.Power != b.Power || a.SampleSize != b.SampleSize {
			t.Fatalf("reps=%d: results differ across worker counts: %v vs %v", reps, a, b)
		}
		if reps > sim.MaxLanes {
			requireLayouts(t, "reps="+strconv.Itoa(reps), []int{two, five})
		} else if two != 1 || five != 1 {
			t.Errorf("reps=%d: %d and %d shards, want one word row as one shard", reps, two, five)
		}
	}
}

// TestEstimateParallelWithInterval: the fixed-interval parallel variant
// runs and converges on a small circuit.
func TestEstimateParallelWithInterval(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 8
	res, err := EstimateParallelWithInterval(tb, factory, 3, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Interval != 2 {
		t.Fatalf("interval = %d, want 2", res.Interval)
	}
	if res.Power <= 0 || !res.Converged {
		t.Fatalf("bad result: %v", res)
	}
	if _, err := EstimateParallelWithInterval(tb, factory, 3, opts, -1); err == nil {
		t.Fatal("negative interval accepted")
	}
}

// TestEstimateParallelMaxSamples: the sample budget is honored at
// round granularity — an unconverged run still collects every whole
// round that fits under MaxSamples instead of aborting a block early.
func TestEstimateParallelMaxSamples(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 64
	opts.Spec = stopping.Spec{RelErr: 0.0005, Confidence: 0.999} // unreachable
	opts.MaxSamples = 500
	res, err := EstimateParallelWithInterval(tb, factory, 1, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Converged {
		t.Fatal("converged at an unreachable spec")
	}
	want := (opts.MaxSamples / opts.Replications) * opts.Replications // 448
	if res.SampleSize != want {
		t.Fatalf("sample size %d, want %d (every whole round under the budget)", res.SampleSize, want)
	}
}

// TestEstimateParallelValidate: negative knobs are rejected.
func TestEstimateParallelValidate(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = -1
	if _, err := EstimateParallel(tb, factory, 1, opts); err == nil {
		t.Fatal("negative Replications accepted")
	}
	opts = DefaultOptions()
	opts.Workers = -2
	if _, err := EstimateParallel(tb, factory, 1, opts); err == nil {
		t.Fatal("negative Workers accepted")
	}
}

// TestRunShardsPanicReachesCaller: a panic in fn on one shard goroutine
// does not kill the process. Every other shard still runs, and the
// panic is raised again on the caller's goroutine, carrying its value
// and the stack it was raised on.
func TestRunShardsPanicReachesCaller(t *testing.T) {
	shards := make([]*shard, 7)
	for i := range shards {
		shards[i] = &shard{lanes: i}
	}
	ran := make([]bool, len(shards))
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		runShards(shards, 3, func(sh *shard) {
			if sh.lanes == 2 {
				panic("shard 2 failed")
			}
			ran[sh.lanes] = true
		})
	}()
	p, ok := recovered.(*sim.GoroutinePanic)
	if !ok || p.Value != "shard 2 failed" {
		t.Fatalf("recovered %#v, want the shard's panic value", recovered)
	}
	if msg := p.Error(); !strings.Contains(msg, "shard 2 failed") || !strings.Contains(msg, "TestRunShardsPanicReachesCaller") {
		t.Fatalf("panic message lacks the value or the shard's stack:\n%s", msg)
	}
	for i, ok := range ran {
		if i != 2 && !ok {
			t.Fatalf("shard %d never ran", i)
		}
	}
}

// pollBudget is a context that reports context.Canceled once Err has
// been polled a fixed number of times.
type pollBudget struct {
	context.Context
	polls int
}

func (p *pollBudget) Err() error {
	if p.polls == 0 {
		return context.Canceled
	}
	p.polls--
	return nil
}

// TestWarmStopsOnCancel: a context that ends while a worker
// fast-forwards (a retry skipping merged blocks at a long interval)
// stops the warm-up at the next chunk boundary. The cycles every
// replication ran are the judge, not the wall clock.
func TestWarmStopsOnCancel(t *testing.T) {
	c := bench89.S27()
	tb := DefaultTestbench(c)
	opts := DefaultOptions()
	opts.Replications = 8
	opts.pool = 2
	const interval, skipRounds = 100, 1000
	cycles := func(ctx context.Context) []uint64 {
		run, err := newReplicationRun(tb, vectors.IIDFactory(len(c.Inputs), 0.5), 1, opts, 0, 8)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.bind(interval, vr.Plan{}); err != nil {
			t.Fatal(err)
		}
		run.warm(ctx, skipRounds)
		var out []uint64
		for _, sh := range run.shards {
			hidden, _ := sh.ps.CycleCounts() // summed over the shard's lanes
			out = append(out, hidden/uint64(sh.lanes))
		}
		return out
	}
	for _, h := range cycles(context.Background()) {
		if want := uint64(opts.WarmupCycles + skipRounds*(interval+1)); h != want {
			t.Fatalf("uncancelled fast-forward ran %d cycles, want %d", h, want)
		}
	}
	for _, h := range cycles(&pollBudget{Context: context.Background(), polls: 2}) {
		if h != 2*warmChunk {
			t.Fatalf("fast-forward cancelled after two polls ran %d cycles, want %d", h, 2*warmChunk)
		}
	}
}

// hookSource is a source that calls hook with the count of patterns it
// has drawn before drawing each one.
type hookSource struct {
	vectors.Source
	n    int
	hook func(n int)
}

func (s *hookSource) Next(dst []bool) {
	s.hook(s.n)
	s.n++
	s.Source.Next(dst)
}

// TestCancelDuringPhase1StopsSideWarmup: a context cancelled while
// phase 1 runs ends EstimateParallelCtx with context.Canceled, and the
// tail's warm-up beside it stops at the next chunk boundary. Replication
// 0's source parks the warm-up inside its second chunk until phase 1's
// source cancels the context, so the patterns it drew — one per cycle —
// are the judge, not the wall clock.
func TestCancelDuringPhase1StopsSideWarmup(t *testing.T) {
	c := bench89.S27()
	tb := DefaultTestbench(c)
	iid := vectors.IIDFactory(len(c.Inputs), 0.5)
	built := drawnAtBuild(c)

	for _, pool := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Replications = 8
		opts.pool = pool
		opts.WarmupCycles = 8 * warmChunk
		const seed = 1
		ctx, cancel := context.WithCancel(context.Background())
		reached := make(chan struct{})
		var rep0 *hookSource
		factory := func(s int64) vectors.Source {
			switch s {
			case seed: // phase 1, on the caller's goroutine
				return &hookSource{Source: iid(s), hook: func(n int) {
					if n != 0 {
						return
					}
					select {
					case <-reached:
					case <-time.After(time.Minute): // a hang guard
						t.Error("the tail warm-up never reached its second chunk")
					}
					cancel()
				}}
			case seed + 1: // replication 0, drawn on the warm-up's goroutine
				rep0 = &hookSource{Source: iid(s), hook: func(n int) {
					if n == built+warmChunk+1 {
						close(reached)
						<-ctx.Done()
					}
				}}
				return rep0
			}
			return iid(s)
		}
		_, err := EstimateParallelCtx(ctx, tb, factory, seed, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pool=%d: error %v, want context.Canceled", pool, err)
		}
		if got, want := rep0.n-built, 2*warmChunk; got != want {
			t.Fatalf("pool=%d: cancelled warm-up ran %d cycles, want %d", pool, got, want)
		}
	}
}

// drawnAtBuild counts the patterns a lane session draws from a source
// of circuit c when it is built, before its first cycle.
func drawnAtBuild(c *netlist.Circuit) int {
	probe := &hookSource{Source: vectors.NewIID(len(c.Inputs), 0.5, 0), hook: func(int) {}}
	sim.NewCompiledSession(c, nil, []vectors.Source{probe})
	return probe.n
}

// TestSidePanicReachesCaller: a panic on the goroutine that warms the
// tail beside the pre-sampling phases is raised again on the caller's
// goroutine as a *sim.GoroutinePanic, where the service's recover fails just
// that job. Replication 0's source panics on its first warm-up draw,
// under both estimators and a resume, with the warm-up on one goroutine
// and on two shards of a word row each. So is a panic on the helper
// that observes a tail round ahead: at pool 2 the hook panics on the
// first round a helper observes, in a resume whose spec runs it past
// the serial blocks. A panic on the helper that settles phase-1
// batches is sim's TestCollectHelperPanicReachesCaller: the batches it
// would fail on, the caller settles too.
func TestSidePanicReachesCaller(t *testing.T) {
	c := bench89.MustGet("s832")
	tb := DefaultTestbench(c)
	iid := vectors.IIDFactory(len(c.Inputs), 0.5)
	built := drawnAtBuild(c)
	const seed = 5
	factory := func(s int64) vectors.Source {
		if s != seed+1 {
			return iid(s)
		}
		return &hookSource{Source: iid(s), hook: func(n int) {
			if n == built {
				panic("warm-up draw")
			}
		}}
	}
	recovered := func(f func()) (p any) {
		defer func() { p = recover() }()
		f()
		return nil
	}
	for _, pool := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Replications = 2 * sim.MaxLanes
		opts.pool = pool
		rp, err := PreparePlanCtx(context.Background(), tb, iid, seed, opts, nil)
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]func(){
			"selected": func() { EstimateParallelCtx(context.Background(), tb, factory, seed, opts) },
			"fixed":    func() { EstimateParallelWithIntervalCtx(context.Background(), tb, factory, seed, opts, 2) },
			"resume":   func() { EstimateParallelResumeCtx(context.Background(), tb, factory, seed, opts, rp) },
		} {
			got := recovered(run)
			if p, ok := got.(*sim.GoroutinePanic); !ok || p.Value != "warm-up draw" {
				t.Fatalf("%s, pool=%d: recovered %#v, want a *sim.GoroutinePanic of the warm-up draw", name, pool, got)
			}
		}
	}
	opts := DefaultOptions()
	opts.Replications, opts.pool = sim.MaxLanes, 2
	opts.Spec = stopping.Spec{RelErr: 0.0005, Confidence: 0.999}
	rp, err := PreparePlanCtx(context.Background(), tb, iid, seed, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	setAheadHook(t, func(g int, _ *atomic.Bool) {
		if g == lookAheadAfter {
			panic("helper fault")
		}
	})
	got := recovered(func() { EstimateParallelResumeCtx(context.Background(), tb, iid, seed, opts, rp) })
	if p, ok := got.(*sim.GoroutinePanic); !ok || p.Value != "helper fault" {
		t.Fatalf("tail helper: recovered %#v, want a *sim.GoroutinePanic of the helper fault", got)
	} else if !strings.Contains(p.Error(), "replicationRun).start") {
		t.Fatalf("tail helper: carried %v, want the helper's stack", p)
	}
}

// TestShardEventBeforeWarmupJoin: the shard trace event fires once the
// pre-sampling phases end and before the tail's warm-up is joined, so a
// trace charges the warm-up to the sampling tail, as it did when the
// warm-up ran after the event. Replication 0's source holds the warm-up
// at its first draw until the trace shows the event, under a fresh run
// and a resume; the fresh run's trace keeps the order select-interval,
// plan-resolve, shard.
func TestShardEventBeforeWarmupJoin(t *testing.T) {
	c := bench89.S27()
	tb := DefaultTestbench(c)
	iid := vectors.IIDFactory(len(c.Inputs), 0.5)
	built := drawnAtBuild(c)
	opts := DefaultOptions()
	opts.Replications = 8
	const seed = 1
	rp, err := PreparePlanCtx(context.Background(), tb, iid, seed, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		run  func(context.Context, vectors.Factory) error
		want []string
	}{
		{"selected", func(ctx context.Context, f vectors.Factory) error {
			_, err := EstimateParallelCtx(ctx, tb, f, seed, opts)
			return err
		}, []string{"select-interval", "plan-resolve", "shard"}},
		{"resume", func(ctx context.Context, f vectors.Factory) error {
			_, err := EstimateParallelResumeCtx(ctx, tb, f, seed, opts, rp)
			return err
		}, []string{"shard"}},
	} {
		tr := obs.NewTrace()
		phases := func() []string {
			var out []string
			for _, sp := range tr.Spans() {
				switch sp.Name {
				case "select-interval", "plan-resolve", "shard":
					out = append(out, sp.Name)
				}
			}
			return out
		}
		factory := func(s int64) vectors.Source {
			if s != seed+1 {
				return iid(s)
			}
			return &hookSource{Source: iid(s), hook: func(n int) {
				if n != built {
					return
				}
				deadline := time.Now().Add(30 * time.Second) // a hang guard
				for !slices.Contains(phases(), "shard") {
					if time.Now().After(deadline) {
						t.Errorf("%s: no shard event while the warm-up ran", tc.name)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}}
		}
		if err := tc.run(obs.ContextWithTrace(context.Background(), tr), factory); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := phases(); !slices.Equal(got, tc.want) {
			t.Errorf("%s: trace phases %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPrepareRunsBesideWarmup: EstimateParallelFrom calls its prepare
// hook on the caller's goroutine while the tail's warm-up is in flight.
// Replication 0's source parks the warm-up at its first draw until
// prepare is entered, and prepare waits for that park, so a lifecycle
// that ran the two one after the other trips a hang guard. The result
// is EstimateParallelCtx's, at one and two pool goroutines.
func TestPrepareRunsBesideWarmup(t *testing.T) {
	c := bench89.S27()
	tb := DefaultTestbench(c)
	iid := vectors.IIDFactory(len(c.Inputs), 0.5)
	built := drawnAtBuild(c)
	const seed = 1
	ctx := context.Background()
	for _, pool := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Replications = 8
		opts.pool = pool
		want, err := EstimateParallelCtx(ctx, tb, iid, seed, opts)
		if err != nil {
			t.Fatal(err)
		}
		parked, entered := make(chan struct{}), make(chan struct{})
		factory := func(s int64) vectors.Source {
			if s != seed+1 {
				return iid(s)
			}
			return &hookSource{Source: iid(s), hook: func(n int) {
				if n != built {
					return
				}
				close(parked)
				select {
				case <-entered:
				case <-time.After(time.Minute): // a hang guard
					t.Errorf("pool=%d: the warm-up waited for a prepare that never began", pool)
				}
			}}
		}
		caller := goroutineID()
		got, err := EstimateParallelFrom(ctx, tb, factory, seed, opts, func() (ResumePoint, error) {
			if id := goroutineID(); id != caller {
				t.Errorf("pool=%d: prepare ran on goroutine %s, the caller is %s", pool, id, caller)
			}
			close(entered)
			select {
			case <-parked:
			case <-time.After(time.Minute): // a hang guard
				t.Errorf("pool=%d: prepare ran with no warm-up in flight", pool)
			}
			return PreparePlanCtx(ctx, tb, iid, seed, opts, nil)
		})
		if err != nil {
			t.Fatalf("pool=%d: %v", pool, err)
		}
		sameEstimate(t, got, want, "pool="+strconv.Itoa(pool))
	}
}

// goroutineID returns the calling goroutine's id, read from the header
// of its stack trace.
func goroutineID() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return strings.Fields(string(buf))[1]
}

// TestFactoryCalledOnCallerGoroutine: the parallel estimators call the
// source factory only on the caller's goroutine, even though the tail
// warms up on another, so a factory need not be safe for concurrent
// use. Covered: selected and fixed intervals, a resume, the
// control-variate pre-run and antithetic mirroring, at one and two pool
// goroutines.
func TestFactoryCalledOnCallerGoroutine(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	iid := vectors.IIDFactory(len(c.Inputs), 0.5)
	caller := goroutineID()
	var calls int
	factory := func(s int64) vectors.Source {
		calls++
		if id := goroutineID(); id != caller {
			t.Errorf("factory(%d) called on goroutine %s, the caller is %s", s, id, caller)
		}
		return iid(s)
	}
	for _, variance := range vr.Modes() {
		for _, pool := range []int{1, 2} {
			opts := DefaultOptions()
			opts.Replications = 16
			opts.Variance.Mode = variance
			opts.pool = pool
			ctx := context.Background()
			if _, err := EstimateParallelCtx(ctx, tb, factory, 3, opts); err != nil {
				t.Fatal(err)
			}
			if _, err := EstimateParallelWithIntervalCtx(ctx, tb, factory, 3, opts, 2); err != nil {
				t.Fatal(err)
			}
			rp, err := PreparePlanCtx(ctx, tb, factory, 3, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := EstimateParallelResumeCtx(ctx, tb, factory, 3, opts, rp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if calls == 0 {
		t.Fatal("the factory was never called")
	}
}
