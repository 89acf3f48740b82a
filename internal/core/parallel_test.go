package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/bench89"
	"repro/internal/stopping"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// TestEstimateParallelDeterministic: the same seeds give the same result,
// bit for bit, regardless of the worker count — the fixed lane→seed
// mapping plus ordered merge make scheduling invisible.
func TestEstimateParallelDeterministic(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Replications = 16
	var ref Result
	for i, workers := range []int{1, 2, 7} {
		opts.Workers = workers
		res, err := EstimateParallel(tb, factory, 42, opts)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.Power != ref.Power || res.SampleSize != ref.SampleSize ||
			res.Interval != ref.Interval || res.HalfWidth != ref.HalfWidth {
			t.Fatalf("workers=%d: result %v differs from workers=1 result %v", workers, res, ref)
		}
	}
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
// not divide evenly across workers or exceed one word still work and
// stay deterministic.
func TestEstimateParallelReplicationSharding(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	for _, reps := range []int{1, 3, 64, 130} {
		opts := DefaultOptions()
		opts.Replications = reps
		opts.Workers = 3
		a, err := EstimateParallel(tb, factory, 11, opts)
		if err != nil {
			t.Fatalf("reps=%d: %v", reps, err)
		}
		opts.Workers = 5
		b, err := EstimateParallel(tb, factory, 11, opts)
		if err != nil {
			t.Fatalf("reps=%d: %v", reps, err)
		}
		if a.Power != b.Power || a.SampleSize != b.SampleSize {
			t.Fatalf("reps=%d: results differ across worker counts: %v vs %v", reps, a, b)
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
	p, ok := recovered.(*shardPanic)
	if !ok || p.value != "shard 2 failed" {
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
	opts.Workers = 2
	const interval, skipRounds = 100, 1000
	cycles := func(ctx context.Context) []uint64 {
		run, err := newReplicationRun(tb, vectors.IIDFactory(len(c.Inputs), 0.5), 1, opts, vr.Plan{}, interval, 0, 8, 1)
		if err != nil {
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
