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
	"repro/internal/power"
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
	counts []uint64  // per-node toggle accumulator (breakdown streams only)
	snap   []uint64  // counts snapshot at the block's merge-consumed round
}

// newShards builds the canonical shard layout over replications
// [lo, hi): SplitRange into at least `workers` shards (so the pool is
// saturated) and enough that none exceeds the backend's lane width.
// Replication r keeps its globally fixed seed baseSeed+1+r regardless
// of the layout, and lane counts differ by at most one. Both
// parallelTail and StreamReplications build their shards here, so
// in-process and cluster runs cannot drift apart.
func newShards(tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, plan vr.Plan, lo, hi, workers int, packedSampled, useCov bool) ([]*shard, error) {
	backend := opts.Backend.Canonical()
	n := hi - lo
	nShards := workers
	if min := (n + sim.MaxLanesFor(backend) - 1) / sim.MaxLanesFor(backend); nShards < min {
		nShards = min
	}
	shards := make([]*shard, 0, nShards)
	for _, b := range SplitRange(lo, hi, nShards) {
		lanes := b[1] - b[0]
		srcs := make([]vectors.Source, lanes)
		for k := range srcs {
			var err error
			if srcs[k], err = replicationSource(src, baseSeed, b[0]+k, plan); err != nil {
				return nil, err
			}
		}
		sh := &shard{
			ps: sim.NewLaneSessionConfig(backend, tb.Circuit, srcs, sim.SessionConfig{
				CacheBudget: opts.CacheBudget,
				Workers:     opts.SessionWorkers,
			}),
			lanes: lanes,
		}
		if !packedSampled {
			sh.engine = sim.NewEventDriven(tb.Circuit, tb.Delays)
		}
		if useCov {
			sh.cov = make([]float64, lanes)
		}
		shards = append(shards, sh)
	}
	return shards, nil
}

// EstimateParallel runs the DIPE flow with many independent replications
// advanced concurrently. Warm-up and interval selection run once on a
// compiled trajectory seeded baseSeed, whose samples are bit-identical
// to Estimate's scalar session; sampling then shards
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

// parallelTail runs the parallel sampling/stopping phase at a fixed
// interval, optionally seeded with an already-collected random sequence
// (consumed only when opts.ReuseTestSamples is set, as in estimateTail).
// On cancellation it returns the partial result together with ctx.Err().
//
// Engine selection: under zero-delay mode sampled cycles run entirely
// word-parallel (the lane session's StepSampled: CompiledSession on the
// default backend, PackedSession on the packed one) and no scalar
// simulator is built at all; under general-delay mode each shard owns
// a scalar event-driven engine and lanes are extracted per sampled
// cycle. A general-delay run whose delay table is all-zero is upgraded
// to the packed engine too — the transition sets are identical (see
// delay.Table.AllZero), though power sums may differ from per-lane
// event-driven simulation in the last ulp because the summation order
// changes.
func parallelTail(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, interval int, seed []float64, seedToggles []uint64, plan vr.Plan) (Result, error) {
	reps := opts.Replications
	if reps == 0 {
		reps = sim.MaxLanes
	}
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > reps {
		workers = reps
	}
	useCov := plan.NeedsCovariate()
	backend := opts.Backend.Canonical()
	packedSampled := (opts.Mode.IsZeroDelay() || tb.Delays.AllZero()) && !useCov
	// The reported engine must track both the sampled-phase upgrade
	// (including the implicit one a general-delay run takes when its
	// delay table is all-zero — see delay.Table.AllZero) AND the backend
	// that actually observed the sampled cycles: a compiled-backend run
	// whose sampled phase stays word-parallel reports the compiled
	// zero-delay engine, not the packed interpreter.
	engineName, delayName := sim.EnginePackedZeroDelay, delay.Zero{}.Name()
	if packedSampled && backend == sim.BackendCompiled {
		engineName = sim.EngineCompiledZeroDelay
	}
	if !packedSampled {
		engineName, delayName = sim.EngineEventDriven, tb.Delays.ModelName
	}

	shards, err := newShards(tb, src, baseSeed, opts, plan, 0, reps, workers, packedSampled, useCov)
	if err != nil {
		return Result{}, err
	}
	tr := obs.TraceFrom(ctx)
	tr.Event("shard",
		"shards", strconv.Itoa(len(shards)),
		"workers", strconv.Itoa(workers),
		"replications", strconv.Itoa(reps),
		"interval", strconv.Itoa(interval))

	// Warm every replication up from reset in parallel.
	runShards(shards, workers, func(sh *shard) {
		sh.ps.StepHiddenN(opts.WarmupCycles)
	})

	// The pooled stopping state is the exported Merger — the same code
	// the distributed coordinator merges remote partial results through —
	// so in-process and cluster runs share one merge order and one budget
	// rule by construction.
	m, err := NewMerger(opts)
	if err != nil {
		return Result{}, err
	}
	if opts.ReuseTestSamples {
		m.Seed(seed)
	}

	// Sampling proceeds in blocks of `rounds` rounds; one round yields
	// one sample per replication. Workers fill their shard's power
	// buffers concurrently; the merge into the criterion is single-
	// threaded and ordered (round-major, replication order).
	rounds := m.Rounds()
	shardPowers := make([][]float64, len(shards))
	shardLanes := make([]int, len(shards))
	for i, sh := range shards {
		sh.powers = make([]float64, rounds*sh.lanes)
		shardPowers[i] = sh.powers
		shardLanes[i] = sh.lanes
	}
	// Per-node attribution rides on the sessions' own accumulators: each
	// shard counts into a private array (no write contention) and the
	// arrays are summed once at the end. Integer addition is associative,
	// so the totals are independent of the shard layout. The block loop
	// steps exactly the rounds the merger consumes, so at any exit the
	// accumulated counts cover exactly the merged samples.
	var shardCounts [][]uint64
	if opts.Breakdown {
		shardCounts = make([][]uint64, len(shards))
		for i, sh := range shards {
			shardCounts[i] = make([]uint64, tb.Circuit.NumNodes())
			sh.ps.AccumulateToggles(shardCounts[i])
		}
	}
	weights := tb.Weights()
	result := func(converged bool) Result {
		var hidden, sampled uint64
		for _, sh := range shards {
			h, s := sh.ps.CycleCounts()
			hidden += h
			sampled += s
		}
		// Every exit fires a final Progress snapshot so long-running
		// callers (the dipe-server job manager) never show a stale last
		// block after convergence, budget exhaustion or cancellation.
		if opts.Progress != nil {
			opts.Progress(m.Progress(interval))
		}
		res := Result{
			Power:         m.Estimate(),
			Interval:      interval,
			SampleSize:    m.N(),
			HalfWidth:     m.HalfWidth(),
			HiddenCycles:  hidden,
			SampledCycles: sampled,
			Criterion:     m.CriterionName(),
			Engine:        engineName,
			Backend:       string(backend),
			DelayModel:    delayName,
			Variance:      plan.Label(),
			CVBeta:        plan.Beta,
			Converged:     converged,
		}
		if opts.Breakdown {
			res.Breakdown = foldBreakdown(tb, opts, m, seed, seedToggles, shardCounts)
			if opts.Metrics != nil {
				opts.Metrics.Power.Observe(res.Breakdown)
			}
		}
		return res
	}
	for !m.Done() {
		if err := ctx.Err(); err != nil {
			return result(false), err
		}
		// Run as many whole rounds as the sample budget allows (one round
		// is the reps-sample granularity of the parallel scheme); give up
		// unconverged only when not even one more round fits.
		n := m.NextRounds()
		if n < 1 {
			return result(false), nil
		}
		runShards(shards, workers, func(sh *shard) {
			for t := 0; t < n; t++ {
				sh.ps.StepHiddenN(interval)
				block := sh.powers[t*sh.lanes : (t+1)*sh.lanes]
				switch {
				case useCov:
					sh.ps.StepSampledBoth(sh.engine, weights, block, sh.cov)
					for k, x := range block {
						block[k] = plan.Apply(x, sh.cov[k])
					}
				case packedSampled:
					sh.ps.StepSampled(weights, block)
				default:
					sh.ps.StepSampledWith(sh.engine, weights, block)
				}
			}
		})
		if err := m.MergeBlock(shardPowers, shardLanes, n); err != nil {
			return result(false), err
		}
		tr.Event("merge-round",
			"rounds", strconv.Itoa(m.MergedRounds()),
			"samples", strconv.Itoa(m.N()),
			"halfWidth", strconv.FormatFloat(m.HalfWidth(), 'g', 6, 64))
		if opts.Progress != nil {
			opts.Progress(m.Progress(interval))
		}
	}
	return result(true), nil
}

// foldBreakdown sums the per-shard accumulators and finishes the
// attribution report through the shared FinishBreakdown seam.
func foldBreakdown(tb *Testbench, opts Options, m *Merger, seed []float64, seedToggles []uint64, shardCounts [][]uint64) *power.BreakdownReport {
	total := make([]uint64, tb.Circuit.NumNodes())
	for _, cnt := range shardCounts {
		for i, n := range cnt {
			total[i] += n
		}
	}
	return FinishBreakdown(tb, opts, m, len(seed), seedToggles, total)
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
