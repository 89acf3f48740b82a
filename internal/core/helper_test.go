package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench89"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stopping"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// sameResult fails unless two Results agree bit for bit in everything
// but wall time: power and half-width bits, sample size, cycle
// counters, interval and trials, variance plan and breakdown.
func sameResult(t *testing.T, where string, got, want Result) {
	t.Helper()
	got.Elapsed, want.Elapsed = 0, 0
	if math.Float64bits(got.Power) != math.Float64bits(want.Power) ||
		math.Float64bits(got.HalfWidth) != math.Float64bits(want.HalfWidth) ||
		math.Float64bits(got.CVBeta) != math.Float64bits(want.CVBeta) {
		t.Fatalf("%s: power %v ± %v (beta %v), want %v ± %v (beta %v)", where,
			got.Power, got.HalfWidth, got.CVBeta, want.Power, want.HalfWidth, want.CVBeta)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: result\n%+v\nwant\n%+v", where, got, want)
	}
}

// TestHelperPoolsMatch: a run whose layout leaves a core free observes
// a round ahead on a helper lane engine, and its Result is the serial
// run's bit for bit. Pool 1 runs no helper; pool 2 runs one wherever
// the job is a single word row and observes event-driven, and the hook
// counts that it did past the serial blocks. Plain, antithetic, control-variate and breakdown
// runs at 1, 16, 64 and 130 replications, general-delay and
// zero-delay, converging with the helper's round in flight or stopped
// by a sample budget that ends in the middle of a 16-replication
// block.
func TestHelperPoolsMatch(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	var ahead atomic.Int64
	setAheadHook(t, func(int, *atomic.Bool) { ahead.Add(1) })
	variants := map[string]func(*Options){
		"plain":           func(*Options) {},
		"antithetic":      func(o *Options) { o.Variance = vr.Spec{Mode: vr.ModeAntithetic} },
		"control-variate": func(o *Options) { o.Variance = vr.Spec{Mode: vr.ModeControlVariate, ControlCycles: 256} },
		"breakdown":       func(o *Options) { o.Breakdown = true },
		"zero-delay":      func(o *Options) { o.Mode = power.ModeZeroDelay },
		"zero-delay-breakdown": func(o *Options) {
			o.Mode, o.Breakdown = power.ModeZeroDelay, true
		},
	}
	for name, set := range variants {
		for _, reps := range []int{1, 16, 64, 130} {
			for _, budget := range []bool{false, true} {
				if (budget && reps != 16) || (reps%2 == 1 && name == "antithetic") {
					continue
				}
				opts := DefaultOptions()
				opts.Replications = reps
				set(&opts)
				if reps > 1 {
					// Past the serial blocks in every variant.
					opts.Spec.RelErr = 0.02
				}
				if budget {
					// 5 rounds fit the budget: blocks of 2, 2 and 1.
					opts.Spec = stopping.Spec{RelErr: 0.0005, Confidence: 0.999}
					opts.MaxSamples = opts.SeqLen + 5*reps
				}
				where := fmt.Sprintf("%s reps=%d budget=%v", name, reps, budget)
				var results [2]Result
				for i, pool := range []int{1, 2} {
					opts.pool = pool
					ahead.Store(0)
					res, err := EstimateParallelCtx(context.Background(), tb, factory, 3, opts)
					if err != nil {
						t.Fatalf("%s pool=%d: %v", where, pool, err)
					}
					// A 1-replication run's blocks hold 32 rounds; it may stop within two.
					if want := pool == 2 && reps <= sim.MaxLanes && !strings.HasPrefix(name, "zero-delay"); reps > 1 && (ahead.Load() > 0) != want {
						t.Fatalf("%s pool=%d: %d rounds observed ahead, want some %v", where, pool, ahead.Load(), want)
					}
					results[i] = res
				}
				if budget && (results[0].Converged || results[0].SampleSize != opts.MaxSamples) {
					t.Fatalf("%s: converged %v with %d samples, want the whole budget of %d", where,
						results[0].Converged, results[0].SampleSize, opts.MaxSamples)
				}
				sameResult(t, where, results[1], results[0])
			}
		}
	}
}

// TestHelperLayout: a run keeps a round in flight exactly when the
// layout leaves a core free (fewer shards than its pool), its sampled
// rounds are observed event-driven and it has handed out lookAheadAfter
// blocks. Until then each shard has one slot and nothing in flight;
// from the next block on such a run returns from each block with the
// next round held by a helper, and stop abandons and joins it. A pool-1
// run, a zero-delay one and one with a shard per core never start a
// helper goroutine.
func TestHelperLayout(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	for _, tc := range []struct {
		pool, reps int
		zeroDelay  bool
		slots      int
	}{
		{1, 64, false, 1},
		{2, 64, false, 2},
		{2, 16, false, 2},
		{4, 130, false, 2},
		{2, 130, false, 1},
		{2, 64, true, 1},
	} {
		opts := DefaultOptions()
		opts.Replications, opts.pool = tc.reps, tc.pool
		if tc.zeroDelay {
			opts.Mode = power.ModeZeroDelay
		}
		where := fmt.Sprintf("pool=%d reps=%d zero-delay=%v", tc.pool, tc.reps, tc.zeroDelay)
		run, err := newReplicationRun(tb, factory, 1, opts, 0, tc.reps)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.bind(1, vr.Plan{}); err != nil {
			t.Fatal(err)
		}
		for b := 0; b <= lookAheadAfter+1; b++ {
			run.block(b, 1, 1)
			slots := 1
			if b >= lookAheadAfter {
				slots = tc.slots
			}
			for i, sh := range run.shards {
				if len(sh.slots) != slots || sh.started != sh.taken+slots-1 {
					t.Fatalf("%s block %d shard %d: %d slots, %d rounds started and %d taken, want %d slots", where, b, i,
						len(sh.slots), sh.started, sh.taken, slots)
				}
				if held := sh.slots[sh.taken%len(sh.slots)].done != nil; held != (slots == 2) {
					t.Fatalf("%s block %d shard %d: next round held by a helper %v", where, b, i, held)
				}
			}
		}
		run.stop()
		for i, sh := range run.shards {
			for _, sl := range sh.slots {
				if sl.done != nil {
					t.Fatalf("%s shard %d: a helper is still held after stop", where, i)
				}
			}
		}
	}
}

// setAheadHook installs fn as aheadHook until the test ends.
func setAheadHook(t *testing.T, fn func(g int, abort *atomic.Bool)) {
	aheadHook = fn
	t.Cleanup(func() { aheadHook = nil })
}

// TestTailHelperPanicReachesCaller: a panic on the goroutine that
// observes a round ahead is raised again on the caller's goroutine as
// a *sim.GoroutinePanic when a block takes that round, and dropped when
// the run stops with the round still in flight. The hook panics on the
// helper of the round in flight after the first block that looks
// ahead, and only there.
func TestTailHelperPanicReachesCaller(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications, opts.pool = 64, 2
	setAheadHook(t, func(g int, _ *atomic.Bool) {
		if g == lookAheadAfter+1 {
			panic("helper fault")
		}
	})
	for _, take := range []bool{true, false} {
		run, err := newReplicationRun(tb, factory, 1, opts, 0, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := run.bind(1, vr.Plan{}); err != nil {
			t.Fatal(err)
		}
		for b := 0; b <= lookAheadAfter; b++ {
			run.block(b, 1, 1) // then round lookAheadAfter+1 is in flight
		}
		var got any
		func() {
			defer func() { got = recover() }()
			if take {
				run.block(lookAheadAfter+1, 1, 1)
			}
			run.stop()
		}()
		if !take {
			if got != nil {
				t.Fatalf("stopping with the faulty round in flight raised %v", got)
			}
			continue
		}
		if p, ok := got.(*sim.GoroutinePanic); !ok {
			t.Fatalf("recovered %#v, want a *sim.GoroutinePanic", got)
		} else if p.Value != "helper fault" {
			t.Fatalf("carried %v, want the helper's panic", p)
		}
		run.stop()
	}
}

// TestCancelWithTailRoundInFlight: EstimateParallelFrom and
// StreamReplications join the round they abandon before they return.
// The hook holds the helper of the round in flight when the call ends —
// an estimate cancelled between merged blocks, a stream whose emit
// fails — until stop abandons it, so a call that returned without
// stopping its run would leave that helper running: the goroutine dump
// taken right after each call shows none. The cancelled estimate
// returns context.Canceled and the Result of the merged prefix, the
// same at pool 1 and pool 2: the round in flight reaches no block.
func TestCancelWithTailRoundInFlight(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	// Rounds merged when each call ends; round `merged` is then in flight.
	const merged = lookAheadAfter + 2
	release := make(chan struct{})
	var held atomic.Int64
	setAheadHook(t, func(g int, abort *atomic.Bool) {
		if g != merged {
			return
		}
		held.Add(1)
		for !abort.Load() {
			select {
			case <-release: // the call returned without stop
				return
			case <-time.After(time.Millisecond):
			}
		}
	})
	t.Cleanup(func() { close(release) })
	var results [2]Result
	for i, pool := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Replications, opts.pool = 64, pool
		opts.Spec = stopping.Spec{RelErr: 0.0005, Confidence: 0.999}
		ctx, cancel := context.WithCancel(context.Background())
		opts.Progress = func(p Progress) {
			if p.Rounds == merged {
				cancel()
			}
		}
		res, err := EstimateParallelCtx(ctx, tb, factory, 4, opts)
		cancel()
		if left := helperGoroutines(); left != "" {
			t.Fatalf("pool=%d: goroutines still running after the call returned:\n%s", pool, left)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("pool=%d: error %v, want context.Canceled", pool, err)
		}
		if want := opts.SeqLen + merged*64; res.SampleSize != want || res.Converged {
			t.Fatalf("pool=%d: %d samples (converged %v), want the %d of %d merged rounds", pool, res.SampleSize, res.Converged, want, merged)
		}
		results[i] = res
	}
	sameResult(t, "cancelled", results[1], results[0])

	opts := DefaultOptions()
	opts.Replications, opts.pool = 64, 2
	errEmit := errors.New("emit failed")
	blocks := 0
	err := StreamReplications(context.Background(), tb, factory, 4, opts, Stream{Interval: 2, RepLo: 0, RepHi: 64}, func(ReplicationBlock) error {
		if blocks++; blocks == merged {
			return errEmit
		}
		return nil
	})
	if left := helperGoroutines(); left != "" {
		t.Fatalf("stream: goroutines still running after the call returned:\n%s", left)
	}
	if !errors.Is(err, errEmit) {
		t.Fatalf("stream: error %v, want the emit error", err)
	}
	if n := held.Load(); n != 2 {
		t.Fatalf("the hook held %d rounds in flight, want one per pool-2 call", n)
	}
}

// helperGoroutines returns the stacks of the goroutines that observe a
// tail round ahead (replicationRun.start) or settle phase-1 batches
// beside the trajectory (sim.Session), in one snapshot.
func helperGoroutines() string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var out []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, "repro/internal/core.(*replicationRun).start.func") ||
			strings.Contains(g, "repro/internal/sim.(*Session).startHelper.func") {
			out = append(out, g)
		}
	}
	return strings.Join(out, "\n\n")
}

// TestOneCoreStartsNoHelper: at GOMAXPROCS=1 an estimate runs no
// helper goroutine, neither beside phase 1's trajectory nor a tail
// round ahead, so it keeps the serial order; at GOMAXPROCS=2 the same
// estimate settles phase 1 beside its trajectory. Every source takes a
// goroutine snapshot every 50 draws. A phase-1 helper lives from a
// trial's first full batch to its end, so at two cores the draws of a
// trial's second batch always see it.
func TestOneCoreStartsNoHelper(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	iid := vectors.IIDFactory(len(c.Inputs), 0.5)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var results [2]Result
	for i, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		// The tail's warm-up draws beside phase 1, on a goroutine of its own.
		var snaps, seen atomic.Int64
		factory := func(seed int64) vectors.Source {
			return &hookSource{Source: iid(seed), hook: func(n int) {
				if n%50 == 0 {
					snaps.Add(1)
					if helperGoroutines() != "" {
						seen.Add(1)
					}
				}
			}}
		}
		opts := DefaultOptions()
		opts.Replications = 64
		res, err := EstimateParallelCtx(context.Background(), tb, factory, 6, opts)
		if err != nil {
			t.Fatal(err)
		}
		if snaps.Load() == 0 || (procs == 1) != (seen.Load() == 0) {
			t.Fatalf("GOMAXPROCS=%d: %d of %d snapshots show a helper", procs, seen.Load(), snaps.Load())
		}
		results[i] = res
	}
	sameResult(t, "GOMAXPROCS 1 and 2", results[1], results[0])
}

// TestCancelMidTrial: a context that ends while interval selection
// records the second settle batch of a trial stops the trial before its
// third batch with context.Canceled: the session has run exactly two
// batches' sampled cycles.
func TestCancelMidTrial(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	opts := DefaultOptions()
	for _, mode := range []power.PowerMode{power.ModeGeneralDelay, power.ModeZeroDelay} {
		ctx, cancel := context.WithCancel(context.Background())
		src := &hookSource{Source: vectors.NewIID(len(c.Inputs), 0.5, 2), hook: func(n int) {
			if n == sim.MaxLanes+5 {
				cancel()
			}
		}}
		s := tb.NewSessionMode(src, mode)
		_, err := SelectIntervalCtx(ctx, s, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: error %v, want context.Canceled", mode, err)
		}
		if s.SampledCycles != 2*sim.MaxLanes || s.HiddenCycles != 0 {
			t.Fatalf("%s: cycles (%d, %d), want the first trial's two batches (0, %d)", mode,
				s.HiddenCycles, s.SampledCycles, 2*sim.MaxLanes)
		}
	}
}
