package core

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"repro/internal/delay"
	"repro/internal/obs"
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
	pool     int // goroutines that step the shards
	lanes    int
	warmup   int
	interval int
	weights  []float64
	plan     vr.Plan
	prev     []uint64 // toggle totals of the blocks handed out (breakdown runs only)
}

// newReplicationRun lays replications [lo, hi) out in shards by
// Ranges, asking for as many shards as the goroutine pool is wide
// (GOMAXPROCS) and for enough that none exceeds the backend's session
// width. A word-parallel job therefore cuts only at word rows, and a
// 64-replication one is a single shard. Replication r keeps its
// globally fixed seed baseSeed+1+r regardless of the layout. Each
// shard's sample buffer holds BlockRounds(opts) rounds, the longest
// block the run will be asked for.
//
// The layout, the sources and the warm-up depend on the options alone,
// never on the interval or the plan the pre-sampling phases resolve, so
// a run can be built before those phases and warmed while they run;
// bind then sets the two before the first block.
func newReplicationRun(tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, lo, hi int) (*replicationRun, error) {
	backend := opts.Backend.Canonical()
	rounds := BlockRounds(opts)
	pool := opts.pool
	if pool == 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	width := sim.MaxLanesFor(backend)
	packed := wordSampled(tb, opts)
	pairing := opts.Variance.Mode.Canonical() == vr.ModeAntithetic
	r := &replicationRun{
		pool:    pool,
		lanes:   hi - lo,
		warmup:  opts.WarmupCycles,
		weights: tb.Weights(),
	}
	if opts.Breakdown {
		r.prev = make([]uint64, tb.Circuit.NumNodes())
	}
	for _, b := range Ranges(tb, opts, lo, hi, max(pool, (hi-lo+width-1)/width)) {
		lanes := b[1] - b[0]
		srcs := make([]vectors.Source, lanes)
		for k := range srcs {
			var err error
			if srcs[k], err = replicationSource(src, baseSeed, b[0]+k, pairing); err != nil {
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

// bind sets the independence interval and the resolved plan the run
// samples at. A plan that observes a covariate gets per-shard covariate
// scratch; it needs the per-lane engine that only event-driven sampling
// has, which ResolvePlan guarantees by rejecting control variates on
// zero-delay runs and all-zero delay tables.
func (r *replicationRun) bind(interval int, plan vr.Plan) error {
	r.interval, r.plan = interval, plan
	if !plan.NeedsCovariate() {
		return nil
	}
	for _, sh := range r.shards {
		if sh.engine == nil {
			return fmt.Errorf("core: a control-variate plan needs event-driven sampling (general-delay mode, non-zero delays)")
		}
		sh.cov = make([]float64, sh.lanes)
	}
	return nil
}

// warmChunk is how many hidden cycles stepHidden runs between polls of
// its context. The default 512-cycle warm-up runs as one chunk.
const warmChunk = 1024

// stepHidden is the one bulk warm-up loop: it advances n hidden cycles
// through step, at most warmChunk at a time, and polls ctx before every
// chunk. Once ctx ends it returns ctx's error and steps no further.
// Polling never touches the trajectory, so a run that is not cancelled
// steps exactly as one StepHiddenN(n) would.
func stepHidden(ctx context.Context, n int, step func(int)) error {
	for left := n; left > 0; left -= warmChunk {
		if err := ctx.Err(); err != nil {
			return err
		}
		step(min(left, warmChunk))
	}
	return nil
}

// warm runs every replication through the warm-up from reset, followed
// by skipRounds already-merged rounds. Power observation does not
// influence the state trajectory, so replayed rounds run as pure hidden
// cycles: interval hidden cycles plus the would-be sampled cycle each,
// at the interval bind set (skipRounds is 0 before bind). It stops
// early once ctx ends (stepHidden) and drops the error, because both
// callers check ctx before their first block.
func (r *replicationRun) warm(ctx context.Context, skipRounds int) {
	_ = stepHidden(ctx, r.warmup+skipRounds*(r.interval+1), func(n int) {
		runShards(r.shards, r.pool, func(sh *shard) { sh.ps.StepHiddenN(n) })
	})
}

// block steps n rounds and returns them as block b: n rounds of
// samples, round-major with replications ascending within a round.
// Under a control-variate plan each sample is already transformed.
// Under Options.Breakdown the block carries the per-node toggle delta
// of its first `count` rounds (count <= n) — the rounds the merge side
// will consume, which its sample budget may clip below n.
func (r *replicationRun) block(b, n, count int) ReplicationBlock {
	runShards(r.shards, r.pool, func(sh *shard) {
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
// baseSeed+1+r, a fixed lane→seed mapping — into the shards Ranges
// lays out, stepped by GOMAXPROCS goroutines. Each shard drives a lane
// session (the compiled backend by default, up to sim.CompiledMaxLanes
// = 512 replications per session; the packed interpreter takes 64)
// through the hidden cycles of the independence interval. On sampled
// cycles a general-delay run hands each lane to the shard's scalar
// event-driven simulator; a zero-delay run observes every lane
// word-parallel. Samples are merged into the
// stopping criterion deterministically (round-major, in replication
// order), so the result is reproducible and independent of the shard
// layout and of goroutine scheduling.
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
//
// It is EstimateParallelFrom with PreparePlanCtx as the prepare hook:
// phase 1 and plan resolution freeze a ResumePoint, the checkpoint seam
// the durable job store persists across server restarts, while the
// tail's shards warm up from reset beside them. The Result is
// bit-identical to PreparePlanCtx followed by EstimateParallelResumeCtx,
// so a resumed run cannot diverge from an uninterrupted one.
func EstimateParallelCtx(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options) (Result, error) {
	return EstimateParallelFrom(ctx, tb, src, baseSeed, opts, func() (ResumePoint, error) {
		return PreparePlanCtx(ctx, tb, src, baseSeed, opts, nil)
	})
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
	return EstimateParallelFrom(ctx, tb, src, baseSeed, opts, func() (ResumePoint, error) {
		return PreparePlanCtx(ctx, tb, src, baseSeed, opts, &interval)
	})
}

// EstimateParallelFrom is the one lifecycle of the in-process
// estimator: build → (warm ∥ prepare) → bind → sample. It builds the
// run's shards on the caller's goroutine, so the source factory is only
// ever called there, and warms them from reset on a goroutine of its
// own while prepare, on the caller's goroutine, freezes the
// pre-sampling phases into a ResumePoint: phase 1 and plan resolution
// (PreparePlanCtx) for a fresh run, the journaled point for a resumed
// one. The warm-up reads neither the interval nor the plan, so it runs
// beside phase 1 instead of after it. The run is then bound to
// prepare's point and sampled by one Tail. Every sample, cycle counter
// and Result is what running the phases one after another gives:
// PreparePlanCtx followed by EstimateParallelResumeCtx is exactly
// EstimateParallelCtx, which is what makes a durable job's resume
// bit-identical. The service's local dispatcher passes the job
// manager's hook, which journals the job's checkpoint before it
// returns, so the checkpoint is durable before the first block.
//
// The warm-up goroutine never outlives the call. It is joined before
// the first block; on an error, a cancellation or a panic on the
// caller's goroutine (prepare's included) it is cancelled and joined,
// as if it had not started. A panic on it is raised again on the
// caller's goroutine as a *shardPanic.
func EstimateParallelFrom(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, prepare func() (ResumePoint, error)) (Result, error) {
	start := time.Now()
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	reps, _, _ := blockShape(opts)
	run, err := newReplicationRun(tb, src, baseSeed, opts, 0, reps)
	if err != nil {
		return Result{}, err
	}
	warm := goSide(ctx, func(ctx context.Context) { run.warm(ctx, 0) })
	defer warm.stop()
	rp, err := prepare()
	if err != nil {
		return Result{}, err
	}
	t, err := NewTail(tb, opts, rp)
	if err != nil {
		return Result{}, err
	}
	s := t.Stream(0, reps)
	if err := s.Validate(opts); err != nil {
		return Result{}, err
	}
	obs.TraceFrom(ctx).Event("shard",
		"shards", strconv.Itoa(len(run.shards)),
		"workers", strconv.Itoa(run.pool),
		"replications", strconv.Itoa(reps),
		"interval", strconv.Itoa(rp.Interval))
	warm.wait()
	if err := run.bind(s.Interval, s.Plan); err != nil {
		return Result{}, err
	}
	// The producer runs in lockstep with the merge loop, so it simulates
	// exactly the rounds the merger consumes.
	res, err := t.Run(ctx, []int{reps}, func(b, n int) ([]ReplicationBlock, error) {
		return []ReplicationBlock{run.block(b, n, n)}, nil
	})
	res.Elapsed = time.Since(start)
	return res, err
}

// wordSampled reports whether a parallel run observes its sampled
// cycles word-parallel on the lane session (StepSampled) instead of per
// lane on a scalar engine: zero-delay mode, or a general-delay run whose
// delay table is all-zero (see delay.Table.AllZero). A control variate,
// which needs the scalar engine's sample next to the covariate, never
// meets either condition: Options.Validate rejects it under zero-delay
// and ResolvePlan on an all-zero table.
func wordSampled(tb *Testbench, opts Options) bool {
	return opts.Mode.IsZeroDelay() || tb.Delays.AllZero()
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
func engineLabels(tb *Testbench, opts Options) (engine, delayModel string) {
	switch {
	case !wordSampled(tb, opts):
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

// side is work started on a goroutine of its own beside the caller's
// (goSide): the tail's warm-up beside the pre-sampling phases.
type side struct {
	cancel context.CancelFunc
	done   chan struct{} // closed when fn has returned or panicked
	panic  *shardPanic
}

// goSide starts fn on a goroutine of its own under a child of ctx. The
// caller joins it with wait where it first needs fn's work, and defers
// stop, so the goroutine never outlives the caller on any exit.
func goSide(ctx context.Context, fn func(context.Context)) *side {
	ctx, cancel := context.WithCancel(ctx)
	s := &side{cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		defer func() {
			if r := recover(); r != nil {
				p, ok := r.(*shardPanic) // already carried off a shard goroutine
				if !ok {
					p = &shardPanic{value: r, stack: debug.Stack()}
				}
				s.panic = p
			}
		}()
		fn(ctx)
	}()
	return s
}

// wait joins the side goroutine. A panic in fn is raised again here, on
// the caller's goroutine, as a *shardPanic, so the caller's recover
// (the service fails just that job) sees it.
func (s *side) wait() {
	<-s.done
	s.cancel()
	if s.panic != nil {
		panic(s.panic)
	}
}

// stop cancels the side goroutine and joins it, dropping a panic on it:
// the caller is returning without its work (an error, a cancellation or
// a panic of its own), as if it had never started. fn must return
// promptly once its context ends. stop after wait is a no-op.
func (s *side) stop() {
	s.cancel()
	<-s.done
}

// shardPanic is a panic raised on a shard or side goroutine, carried to
// the goroutine that ran it together with the stack it was raised on.
type shardPanic struct {
	value any
	stack []byte
}

func (p *shardPanic) Error() string {
	return fmt.Sprintf("%v [shard goroutine stack:\n%s]", p.value, p.stack)
}
