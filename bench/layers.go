package main

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// phase1 tallies the interval selections of decomposed estimates.
type phase1 struct {
	Trials int // randomness-test trials run
	Wasted int // trials rejected (their samples only bought the rejection)
}

// decompose re-runs a request through the estimator's public phases as
// separate calls, one span each: the scalar session's warm-up
// (Testbench.NewSessionMode and StepHiddenN), interval selection
// (SelectIntervalCtx), plan resolution (ResolvePlan) and the sampling
// tail (EstimateParallelResumeCtx). This is the sequence
// EstimateParallelCtx runs, so the returned tail Result must equal the
// op's Result bit for bit. The ResumePoint is returned for replay.
func decompose(ctx context.Context, tb *core.Testbench, req service.JobRequest, tr *tracer, opID int, p1 *phase1) (core.Result, core.ResumePoint, error) {
	factory, err := req.Source.Factory(len(tb.Circuit.Inputs))
	if err != nil {
		return core.Result{}, core.ResumePoint{}, err
	}
	opts := req.Options.Options()
	root := tr.begin("estimate.decomposed", 0, opID)
	defer tr.end(root, 0)

	var rp core.ResumePoint
	var sel *core.IntervalSelection
	if req.Interval != nil {
		rp.Interval = *req.Interval
	} else {
		id := tr.begin("core.warmup", root, opID)
		s := tb.NewSessionMode(factory(req.Seed), opts.Mode)
		s.StepHiddenN(opts.WarmupCycles)
		tr.end(id, s.HiddenCycles)
		warm := s.HiddenCycles

		id = tr.begin("core.select", root, opID)
		got, err := core.SelectIntervalCtx(ctx, s, opts)
		tr.end(id, s.HiddenCycles+s.SampledCycles-warm)
		if err != nil {
			return core.Result{}, rp, err
		}
		sel = &got
		rp.Interval, rp.Capped, rp.Trials, rp.SeedToggles = got.Interval, got.Capped, got.Trials, got.Toggles
		rp.Hidden, rp.Sampled = s.HiddenCycles, s.SampledCycles
		p1.Trials += len(got.Trials)
		for _, t := range got.Trials {
			if !t.Accepted {
				p1.Wasted++
			}
		}
	}

	id := tr.begin("core.plan", root, opID)
	plan, seedSeq, cost, err := core.ResolvePlan(ctx, tb, factory, req.Seed, opts, rp.Interval, sel)
	tr.end(id, cost.Hidden+cost.Sampled)
	if err != nil {
		return core.Result{}, rp, err
	}
	rp.Plan, rp.SeedSeq = plan, seedSeq
	rp.Hidden += cost.Hidden
	rp.Sampled += cost.Sampled

	id = tr.begin("core.tail", root, opID)
	res, err := core.EstimateParallelResumeCtx(ctx, tb, factory, req.Seed, opts, rp)
	tr.end(id, 0)
	return res, rp, err
}

// replayable reports whether replay covers the request: the plain
// estimator, without variance reduction or per-node attribution.
func replayable(req service.JobRequest) bool {
	opts := req.Options.Options()
	return opts.Variance.Mode.Canonical() == vr.ModeNone && !opts.Breakdown
}

// replay re-runs the sampling tail from rp with the public pieces the
// estimator is built from: the replication space is cut with
// core.SplitRange into the estimator's shard layout, each shard is a
// sim.NewLaneSessionConfig session, and blocks are merged with
// core.NewMerger and MergeBlock. Shards run one after another here, so
// each span is busy time of one layer: the shard warm-up, the hidden
// cycles and the sampled cycles of each round, and each merge. Spans
// carry the lane-cycles they simulated (merge spans: the rounds merged).
// The merged result must equal the estimator's bit for bit.
func replay(tb *core.Testbench, req service.JobRequest, rp core.ResumePoint, tr *tracer, opID int) (result, error) {
	factory, err := req.Source.Factory(len(tb.Circuit.Inputs))
	if err != nil {
		return result{}, err
	}
	opts := req.Options.Options()
	root := tr.begin("estimate.replay", 0, opID)
	defer tr.end(root, 0)

	reps := opts.Replications
	if reps == 0 {
		reps = sim.MaxLanes
	}
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, reps)
	backend := opts.Backend.Canonical()
	width := sim.MaxLanesFor(backend)
	packedSampled := opts.Mode.IsZeroDelay() || tb.Delays.AllZero()

	type shard struct {
		ps     sim.LaneSession
		engine sim.PowerEngine
		lanes  int
		powers []float64
	}
	var shards []*shard
	for _, b := range core.SplitRange(0, reps, max(workers, (reps+width-1)/width)) {
		sh := &shard{lanes: b[1] - b[0]}
		srcs := make([]vectors.Source, sh.lanes)
		for k := range srcs {
			srcs[k] = factory(req.Seed + 1 + int64(b[0]+k))
		}
		sh.ps = sim.NewLaneSessionConfig(backend, tb.Circuit, srcs, sim.SessionConfig{
			CacheBudget: opts.CacheBudget,
			Workers:     opts.SessionWorkers,
		})
		if !packedSampled {
			sh.engine = sim.NewEventDriven(tb.Circuit, tb.Delays)
		}
		shards = append(shards, sh)
	}
	for _, sh := range shards {
		id := tr.begin("sim.tail_warmup", root, opID)
		sh.ps.StepHiddenN(opts.WarmupCycles)
		tr.end(id, uint64(sh.lanes*opts.WarmupCycles))
	}

	m, err := core.NewMerger(opts)
	if err != nil {
		return result{}, err
	}
	if opts.ReuseTestSamples {
		m.Seed(rp.SeedSeq)
	}
	powers := make([][]float64, len(shards))
	lanes := make([]int, len(shards))
	for i, sh := range shards {
		sh.powers = make([]float64, m.Rounds()*sh.lanes)
		powers[i], lanes[i] = sh.powers, sh.lanes
	}
	weights := tb.Weights()
	for !m.Done() {
		n := m.NextRounds()
		if n < 1 {
			break
		}
		for _, sh := range shards {
			for t := 0; t < n; t++ {
				id := tr.begin("sim.tail_hidden", root, opID)
				sh.ps.StepHiddenN(rp.Interval)
				tr.end(id, uint64(sh.lanes*rp.Interval))
				id = tr.begin("sim.tail_sampled", root, opID)
				block := sh.powers[t*sh.lanes : (t+1)*sh.lanes]
				if packedSampled {
					sh.ps.StepSampled(weights, block)
				} else {
					sh.ps.StepSampledWith(sh.engine, weights, block)
				}
				tr.end(id, uint64(sh.lanes))
			}
		}
		id := tr.begin("core.merge", root, opID)
		err := m.MergeBlock(powers, lanes, n)
		tr.end(id, uint64(n))
		if err != nil {
			return result{}, err
		}
	}
	res := result{
		Power: m.Estimate(), HalfWidth: m.HalfWidth(), SampleSize: m.N(), Interval: rp.Interval,
		Hidden: rp.Hidden, Sampled: rp.Sampled, Converged: m.Done(),
	}
	for _, sh := range shards {
		h, s := sh.ps.CycleCounts()
		res.Hidden += h
		res.Sampled += s
	}
	return res, nil
}

// sameResult reports a bit-identity failure, or "" when got equals want.
func sameResult(got, want result, gotWhat, wantWhat string) string {
	if got.digest() == want.digest() {
		return ""
	}
	return fmt.Sprintf("%s %s differs from the %s %s", gotWhat, got.digest(), wantWhat, want.digest())
}
