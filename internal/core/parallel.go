package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/delay"
	"repro/internal/sim"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// shard is one worker's slice of the replication space: a contiguous
// range of replication indices driven by a single lane-parallel session
// (at most sim.MaxLanes lanes interpreted, sim.CompiledMaxLanes
// compiled). Under the general-delay engine each shard additionally
// owns a private scalar power engine for the sampled cycles; under the
// word-parallel zero-delay engines sampled cycles stay packed and
// engine is nil.
type shard struct {
	ps     sim.LaneSession
	engine sim.PowerEngine
	lanes  int
	powers []float64 // per-block lane powers, round-major: [round*lanes + lane]
	cov    []float64 // per-round covariate scratch (control-variate runs only)
	counts []uint64  // per-node toggle accumulator (breakdown runs only)
	snap   []uint64  // counts snapshot after the block's merge-consumed rounds
}

// replicationRun is the one block producer of the sampling phase: it
// steps replications [lo, hi) of an EstimateParallel-shaped run through
// the warm-up and then through rounds of interval hidden cycles and one
// sampled cycle, and hands out their samples one block at a time. The
// in-process estimator runs one over every replication; a cluster
// worker runs one over its leased range (StreamReplications).
type replicationRun struct {
	shards   []*shard
	workers  int
	lanes    int
	warmup   int
	interval int
	weights  []float64
	plan     vr.Plan
	prev     []uint64 // toggle totals of the blocks handed out (breakdown runs only)
}

// newReplicationRun builds the canonical shard layout over replications
// [lo, hi): SplitRange into at least as many shards as the goroutine
// pool is wide (so the pool is saturated) and enough that none exceeds
// the backend's lane width. Replication r keeps its globally fixed seed
// baseSeed+1+r regardless of the layout, and lane counts differ by at
// most one. Each shard's sample buffer holds `rounds` rounds, the
// longest block the run will be asked for.
func newReplicationRun(tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, plan vr.Plan, interval, lo, hi, rounds int) (*replicationRun, error) {
	backend := opts.Backend.Canonical()
	n := hi - lo
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	width := sim.MaxLanesFor(backend)
	packed := wordSampled(tb, opts, plan)
	r := &replicationRun{
		workers:  workers,
		lanes:    n,
		warmup:   opts.WarmupCycles,
		interval: interval,
		weights:  tb.Weights(),
		plan:     plan,
	}
	if opts.Breakdown {
		r.prev = make([]uint64, tb.Circuit.NumNodes())
	}
	for _, b := range SplitRange(lo, hi, max(workers, (n+width-1)/width)) {
		lanes := b[1] - b[0]
		srcs := make([]vectors.Source, lanes)
		for k := range srcs {
			var err error
			if srcs[k], err = replicationSource(src, baseSeed, b[0]+k, plan); err != nil {
				return nil, err
			}
		}
		sh := &shard{
			ps:     sim.NewLaneSession(backend, tb.Circuit, srcs),
			lanes:  lanes,
			powers: make([]float64, rounds*lanes),
		}
		if !packed {
			sh.engine = sim.NewEventDriven(tb.Circuit, tb.Delays)
		}
		if plan.NeedsCovariate() {
			sh.cov = make([]float64, lanes)
		}
		if opts.Breakdown {
			// Each shard counts into a private accumulator (no write
			// contention); integer addition is associative, so the
			// folded totals are independent of the shard layout.
			sh.counts = make([]uint64, len(r.prev))
			sh.snap = make([]uint64, len(r.prev))
			sh.ps.AccumulateToggles(sh.counts)
		}
		r.shards = append(r.shards, sh)
	}
	return r, nil
}

// warmChunk is how many hidden cycles warm steps between polls of its
// context. The default 512-cycle warm-up runs as one chunk.
const warmChunk = 1024

// warm runs every replication through the warm-up from reset, followed
// by skipRounds already-merged rounds. Power observation does not
// influence the state trajectory, so replayed rounds run as pure hidden
// cycles: interval hidden cycles plus the would-be sampled cycle each.
// It polls ctx before every warmChunk cycles and stops early once ctx
// ends; both callers check ctx before their first block.
func (r *replicationRun) warm(ctx context.Context, skipRounds int) {
	for left := r.warmup + skipRounds*(r.interval+1); left > 0 && ctx.Err() == nil; left -= warmChunk {
		n := min(left, warmChunk)
		runShards(r.shards, r.workers, func(sh *shard) { sh.ps.StepHiddenN(n) })
	}
}

// block steps n rounds and returns them as block b: n rounds of
// samples, round-major with replications ascending within a round.
// Under a control-variate plan each sample is already transformed.
// Under Options.Breakdown the block carries the per-node toggle delta
// of its first `count` rounds (count <= n) — the rounds the merge side
// will consume, which its sample budget may clip below n.
func (r *replicationRun) block(b, n, count int) ReplicationBlock {
	runShards(r.shards, r.workers, func(sh *shard) {
		for t := 0; t < n; t++ {
			sh.ps.StepHiddenN(r.interval)
			powers := sh.powers[t*sh.lanes : (t+1)*sh.lanes]
			switch {
			case sh.cov != nil:
				sh.ps.StepSampledBoth(sh.engine, r.weights, powers, sh.cov)
				for k, x := range powers {
					powers[k] = r.plan.Apply(x, sh.cov[k])
				}
			case sh.engine == nil:
				sh.ps.StepSampled(r.weights, powers)
			default:
				sh.ps.StepSampledWith(sh.engine, r.weights, powers)
			}
			if sh.snap != nil && t+1 == count {
				copy(sh.snap, sh.counts)
			}
		}
	})
	blk := ReplicationBlock{Index: b, Samples: make([]float64, 0, n*r.lanes)}
	for t := 0; t < n; t++ {
		for _, sh := range r.shards {
			blk.Samples = append(blk.Samples, sh.powers[t*sh.lanes:(t+1)*sh.lanes]...)
		}
	}
	if r.prev != nil {
		blk.Toggles = make([]uint64, len(r.prev))
		for _, sh := range r.shards {
			for i, c := range sh.snap {
				blk.Toggles[i] += c
			}
		}
		for i := range blk.Toggles {
			blk.Toggles[i], r.prev[i] = blk.Toggles[i]-r.prev[i], blk.Toggles[i]
		}
	}
	return blk
}

// EstimateParallel runs the DIPE flow with many independent replications
// advanced concurrently. Warm-up and interval selection run once on a
// session seeded baseSeed, exactly as in Estimate; sampling then shards
// opts.Replications independent sequences — replication r is seeded
// baseSeed+1+r, a fixed lane→seed mapping — across a goroutine worker
// pool. Each worker drives a lane session (the compiled backend by
// default, up to sim.CompiledMaxLanes = 512 replications per session;
// the packed interpreter takes 64) through the hidden cycles of the
// independence interval. On sampled cycles a general-delay run hands
// each lane to the shard's scalar event-driven simulator; a zero-delay
// run observes every lane word-parallel. Samples are merged into the
// stopping criterion deterministically (round-major, in replication
// order), so the result is reproducible and independent of
// opts.Workers and of goroutine scheduling.
//
// Compared to Estimate, the power samples come from Replications
// parallel sequences instead of one long sequence; samples remain
// i.i.d. across replications by construction (independent seeds), and
// within a replication at the selected independence interval.
func EstimateParallel(tb *Testbench, src vectors.Factory, baseSeed int64, opts Options) (Result, error) {
	return EstimateParallelCtx(context.Background(), tb, src, baseSeed, opts)
}

// EstimateParallelCtx is EstimateParallel with cancellation: the
// sampling loop checks ctx between merged blocks and returns the partial
// (unconverged) result together with ctx.Err() when the context is
// cancelled. The dipe-server job manager uses this to abort jobs.
func EstimateParallelCtx(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options) (Result, error) {
	// Phase 1 (interval selection on a compiled trajectory seeded
	// baseSeed) and plan resolution freeze into a ResumePoint; the
	// sampling tail runs from it. The split is the checkpoint seam the durable job
	// store persists across server restarts — the uninterrupted path
	// here is literally prepare-then-resume, so a resumed run cannot
	// diverge from it.
	start := time.Now()
	rp, err := PreparePlanCtx(ctx, tb, src, baseSeed, opts, nil)
	if err != nil {
		return Result{}, err
	}
	res, err := EstimateParallelResumeCtx(ctx, tb, src, baseSeed, opts, rp)
	res.Elapsed = time.Since(start)
	return res, err
}

// EstimateParallelWithInterval is the fixed-interval variant of
// EstimateParallel (the parallel analogue of EstimateWithInterval): it
// skips selection and samples every replication at the given interval.
func EstimateParallelWithInterval(tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, interval int) (Result, error) {
	return EstimateParallelWithIntervalCtx(context.Background(), tb, src, baseSeed, opts, interval)
}

// EstimateParallelWithIntervalCtx is EstimateParallelWithInterval with
// cancellation (see EstimateParallelCtx).
func EstimateParallelWithIntervalCtx(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, interval int) (Result, error) {
	start := time.Now()
	rp, err := PreparePlanCtx(ctx, tb, src, baseSeed, opts, &interval)
	if err != nil {
		return Result{}, err
	}
	res, err := EstimateParallelResumeCtx(ctx, tb, src, baseSeed, opts, rp)
	res.Elapsed = time.Since(start)
	return res, err
}

// wordSampled reports whether a parallel run observes its sampled
// cycles word-parallel on the lane session (StepSampled) instead of per
// lane on a scalar engine: zero-delay mode, or a general-delay run whose
// delay table is all-zero (see delay.Table.AllZero), unless a control
// variate needs the scalar engine's sample next to the covariate.
func wordSampled(tb *Testbench, opts Options, plan vr.Plan) bool {
	return (opts.Mode.IsZeroDelay() || tb.Delays.AllZero()) && !plan.NeedsCovariate()
}

// engineLabels names the engine and delay model that observe a
// parallel run's sampled cycles, as Result.Engine and Result.DelayModel
// report them. It tracks both the word-parallel upgrade (wordSampled)
// and the backend that observes the words: a compiled run whose sampled
// phase stays word-parallel reports the compiled zero-delay engine, not
// the packed interpreter.
//
// A general-delay run whose delay table is all-zero is upgraded to the
// word-parallel path: the transition sets are identical (see
// delay.Table.AllZero), though power sums may differ from per-lane
// event-driven simulation in the last ulp because the summation order
// changes.
func engineLabels(tb *Testbench, opts Options, plan vr.Plan) (engine, delayModel string) {
	switch {
	case !wordSampled(tb, opts, plan):
		return sim.EngineEventDriven, tb.Delays.ModelName
	case opts.Backend.Canonical() == sim.BackendCompiled:
		return sim.EngineCompiledZeroDelay, delay.Zero{}.Name()
	}
	return sim.EnginePackedZeroDelay, delay.Zero{}.Name()
}

// runShards applies fn to every shard with at most `workers` goroutines
// in flight, and waits for all of them. A panic in fn on a shard
// goroutine is recovered there and frees its slot; once every other
// shard has finished, the first such panic is raised again on the
// caller's goroutine as a *shardPanic, so the caller's recover (the
// service fails just that job) sees it instead of the process dying.
func runShards(shards []*shard, workers int, fn func(*shard)) {
	if workers <= 1 || len(shards) == 1 {
		for _, sh := range shards {
			fn(sh)
		}
		return
	}
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var once sync.Once
	var first *shardPanic
	for _, sh := range shards {
		wg.Add(1)
		sem <- struct{}{}
		go func(sh *shard) {
			defer func() {
				if r := recover(); r != nil {
					once.Do(func() { first = &shardPanic{value: r, stack: debug.Stack()} })
				}
				<-sem
				wg.Done()
			}()
			fn(sh)
		}(sh)
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}

// shardPanic is a panic raised on a shard goroutine, carried to the
// goroutine that ran the shards together with the stack it was raised
// on.
type shardPanic struct {
	value any
	stack []byte
}

func (p *shardPanic) Error() string {
	return fmt.Sprintf("%v [shard goroutine stack:\n%s]", p.value, p.stack)
}
