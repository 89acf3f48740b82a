package core

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stopping"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// This file is the partial-result layer of the parallel estimator,
// exported so the distributed coordinator (internal/cluster) can shard
// the replication space across processes while keeping the paper's
// sequential stopping rule statistically — and bit-for-bit — intact:
//
//   - Merger owns the pooled stopping criterion and merges blocks of
//     per-replication samples in the canonical order (round-major,
//     ascending replication index), exactly as parallelTail does
//     in-process. parallelTail itself is built on it, so a remote merge
//     that feeds the same sample values cannot diverge from the local
//     estimator.
//   - StreamReplications runs a contiguous sub-range of the replication
//     space at a fixed interval and emits its samples in round-blocks —
//     the worker side of the coordinator/worker protocol.
//
// Determinism contract: replication r is always seeded baseSeed+1+r, a
// replication's sample stream depends only on its own seed (packed
// lanes are independent), and the merge order is a pure function of
// (reps, rounds). Any partition of [0,reps) into contiguous ranges —
// goroutine shards, worker processes, or a retried reassignment after a
// worker death — therefore reproduces the single-process estimate
// exactly, including float summation order.

// Merger pools per-replication sample blocks into a stopping criterion
// with the budget rules of EstimateParallel. One block is n rounds; one
// round is one sample from every replication, merged in ascending
// replication order. Under the antithetic variance-reduction mode
// (Options.Variance) the merger is also the transform seam: each
// assembled round is reduced to pair means before feeding the
// criterion, so pairing is a pure function of the canonical merge order
// and replication pairs may span shard or worker boundaries freely.
type Merger struct {
	crit       stopping.Criterion
	reps       int
	rounds     int
	maxSamples int
	merged     int // rounds merged so far

	pairing  bool      // antithetic: criterion consumes pair means
	perRound int       // criterion samples per merged round
	round    []float64 // scratch: one assembled round (pairing only)
	pairs    []float64 // scratch: one round's pair means

	met   *Metrics  // convergence telemetry sink (nil = off)
	start time.Time // sampling-phase start, for samples/s
}

// NewMerger builds the pooled stopping state for an EstimateParallel-
// shaped run: opts.Replications replications (default sim.MaxLanes),
// block cadence max(1, CheckEvery/Replications) rounds, sample budget
// MaxSamples, and the merge-side transform Options.Variance selects.
// opts must validate.
func NewMerger(opts Options) (*Merger, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	reps := opts.Replications
	if reps == 0 {
		reps = sim.MaxLanes
	}
	rounds := opts.CheckEvery / reps
	if rounds < 1 {
		rounds = 1
	}
	m := &Merger{
		crit:       opts.NewCriterion(opts.Spec),
		reps:       reps,
		rounds:     rounds,
		maxSamples: opts.MaxSamples,
		pairing:    opts.Variance.Mode.Canonical() == vr.ModeAntithetic,
		perRound:   reps,
		met:        opts.Metrics,
		start:      time.Now(),
	}
	if m.met != nil {
		m.met.Runs.Inc()
	}
	if m.pairing {
		m.perRound = reps / 2
		m.round = make([]float64, 0, reps)
		m.pairs = make([]float64, 0, m.perRound)
	}
	return m, nil
}

// Seed feeds an already-collected sample sequence (the accepted
// randomness-test sequence, under Options.ReuseTestSamples) into the
// criterion before any block is merged.
func (m *Merger) Seed(samples []float64) {
	for _, p := range samples {
		m.crit.Add(p)
	}
}

// Reps returns the width of the replication space.
func (m *Merger) Reps() int { return m.reps }

// Rounds returns the block cadence: the number of rounds a full block
// carries.
func (m *Merger) Rounds() int { return m.rounds }

// MergedRounds returns the number of rounds merged so far.
func (m *Merger) MergedRounds() int { return m.merged }

// PerRound returns the number of criterion samples one merged round
// yields: the replication count, halved under antithetic pairing.
func (m *Merger) PerRound() int { return m.perRound }

// NextRounds returns how many rounds the next merged block may contain:
// the block cadence, clipped to the remaining sample budget. A return
// below 1 means the budget cannot fund even one more round — the run
// must stop unconverged, exactly as EstimateParallel does.
func (m *Merger) NextRounds() int {
	n := m.rounds
	if remaining := (m.maxSamples - m.crit.N()) / m.perRound; n > remaining {
		n = remaining
	}
	return n
}

// MergeBlock merges n rounds from contiguous replication ranges into
// the criterion. ranges[i] holds range i's samples, round-major
// ([t*lanes[i]+lane], at least n rounds); ranges must be ordered by
// ascending replication index and their lane counts must tile the full
// replication space. The merge order is round-major, ascending
// replication — the canonical order every estimator in this package
// produces.
func (m *Merger) MergeBlock(ranges [][]float64, lanes []int, n int) error {
	if len(ranges) != len(lanes) {
		return fmt.Errorf("core: %d sample ranges but %d lane counts", len(ranges), len(lanes))
	}
	total := 0
	for i, l := range lanes {
		total += l
		if len(ranges[i]) < n*l {
			return fmt.Errorf("core: range %d holds %d samples, need %d rounds x %d lanes",
				i, len(ranges[i]), n, l)
		}
	}
	if total != m.reps {
		return fmt.Errorf("core: ranges cover %d replications, want %d", total, m.reps)
	}
	for t := 0; t < n; t++ {
		if m.pairing {
			// Assemble the full round in canonical order, then feed the
			// criterion its pair means — the antithetic transform.
			m.round = m.round[:0]
			for i, l := range lanes {
				m.round = append(m.round, ranges[i][t*l:(t+1)*l]...)
			}
			m.pairs = vr.PairMeans(m.round, m.pairs[:0])
			for _, y := range m.pairs {
				m.crit.Add(y)
			}
			continue
		}
		for i, l := range lanes {
			for _, p := range ranges[i][t*l : (t+1)*l] {
				m.crit.Add(p)
			}
		}
	}
	m.merged += n
	if m.met != nil {
		// One telemetry update per merged block: the convergence
		// trajectory of the sequential stopping rule, live.
		m.met.Rounds.Add(uint64(n))
		m.met.Samples.Add(uint64(n * m.perRound))
		m.met.Mean.Set(m.crit.Estimate())
		m.met.HalfWidth.Set(m.crit.HalfWidth())
		if elapsed := time.Since(m.start).Seconds(); elapsed > 0 {
			m.met.Rate.Set(float64(m.crit.N()) / elapsed)
		}
	}
	return nil
}

// Done reports whether the pooled criterion has met the accuracy
// specification.
func (m *Merger) Done() bool { return m.crit.Done() }

// N returns the number of samples the criterion has consumed (seeded
// plus merged).
func (m *Merger) N() int { return m.crit.N() }

// Estimate returns the pooled point estimate.
func (m *Merger) Estimate() float64 { return m.crit.Estimate() }

// HalfWidth returns the pooled confidence half-width.
func (m *Merger) HalfWidth() float64 { return m.crit.HalfWidth() }

// CriterionName names the underlying stopping criterion.
func (m *Merger) CriterionName() string { return m.crit.Name() }

// Progress renders the pooled state as a Progress snapshot.
func (m *Merger) Progress(interval int) Progress {
	return Progress{
		Samples:   m.crit.N(),
		Power:     m.crit.Estimate(),
		HalfWidth: m.crit.HalfWidth(),
		Interval:  interval,
		Rounds:    m.merged,
		Elapsed:   time.Since(m.start).Seconds(),
	}
}

// FinishBreakdown builds the per-node attribution report for a sampling
// phase whose merged samples produced the given transition counts. It
// folds the phase-1 seed toggles into total in place — exactly when the
// seed sequence also seeded the criterion (opts.ReuseTestSamples), so
// counts and samples stay in lockstep — computes the observation
// denominator (seeded samples plus one sample per replication per
// merged round), and ranks the report against the testbench's power
// model. Both the in-process tail and the cluster coordinator finish
// through here, which is what makes an N-worker breakdown bit-identical
// to the local one.
func FinishBreakdown(tb *Testbench, opts Options, m *Merger, seedLen int, seedToggles, total []uint64) *power.BreakdownReport {
	observed := uint64(m.MergedRounds()) * uint64(m.Reps())
	if opts.ReuseTestSamples && len(seedToggles) == len(total) {
		for i, n := range seedToggles {
			total[i] += n
		}
		observed += uint64(seedLen)
	}
	return tb.Model.Breakdown(tb.Circuit, total, observed)
}

// SplitRange partitions [lo, hi) into k contiguous sub-ranges whose
// sizes differ by at most one, in ascending order. It is THE partition
// rule of the replication space: parallelTail's goroutine shards,
// StreamReplications' packed sessions and the cluster coordinator's
// worker ranges all use it, which is what keeps every layout merging
// the same samples at the same boundaries.
func SplitRange(lo, hi, k int) [][2]int {
	out := make([][2]int, 0, k)
	next := lo
	for i := 0; i < k; i++ {
		width := (hi - next + k - i - 1) / (k - i)
		out = append(out, [2]int{next, next + width})
		next += width
	}
	return out
}

// SplitRangeAligned partitions [lo, hi) into k contiguous ascending
// sub-ranges whose boundaries are multiples of align relative to lo,
// with the final range absorbing the remainder. Alignment matters to
// the cluster's lease sizing: a lease that is a whole number of
// compiled-session widths (512 lanes) packs its replications into full
// word rows instead of leaving partial words at every lease boundary.
// The ranges still cover [lo, hi) exactly in ascending order — the
// merge rule is unchanged, so alignment can never change a result, only
// how the work is cut. align <= 1 (or a span smaller than k*align,
// which would force empty ranges) degrades gracefully toward
// SplitRange's unaligned cuts.
func SplitRangeAligned(lo, hi, k, align int) [][2]int {
	if align <= 1 {
		return SplitRange(lo, hi, k)
	}
	units := (hi - lo) / align
	out := make([][2]int, 0, k)
	next := lo
	for i, b := range SplitRange(0, units, k) {
		width := (b[1] - b[0]) * align
		if i == k-1 {
			width = hi - next
		}
		out = append(out, [2]int{next, next + width})
		next += width
	}
	return out
}

// ReplicationBlock is one round-block emitted by StreamReplications:
// Rounds rounds of samples from a contiguous replication range, round-
// major with replications ascending within a round.
type ReplicationBlock struct {
	// Index is the block's position in the stream (0-based, counting
	// skipped blocks).
	Index int
	// Rounds is the number of rounds in the block.
	Rounds int
	// Samples holds Rounds*lanes power samples, round-major.
	Samples []float64
	// Toggles holds the block's per-node transition-count delta (indexed
	// by NodeID, summed over the range's replications), emitted only
	// under Options.Breakdown. The delta covers exactly the rounds of
	// this block the merge side will consume — the block cadence, clipped
	// by the budgetRounds schedule — so folding the deltas of the merged
	// blocks reproduces the in-process accumulator bit for bit.
	Toggles []uint64
}

// StreamReplications runs replications [lo, hi) of an EstimateParallel-
// shaped run at a fixed independence interval and emits their power
// samples in blocks of `rounds` rounds. Replication r is seeded
// baseSeed+1+r — the same mapping parallelTail uses, including the
// plan's antithetic mirroring of odd replications — so the emitted
// samples are bit-identical to the corresponding lanes of a single-
// process run, regardless of how [lo, hi) is packed into 64-lane words
// or spread over opts.Workers goroutines.
//
// plan is the resolved variance-reduction plan (ResolvePlan): under the
// control-variate mode each emitted sample is already transformed
// (Y = X - beta (C - mu_C)); under antithetic pairing samples stream
// raw and the Merger reduces assembled rounds to pair means, so pairs
// may span worker boundaries.
//
// skip fast-forwards the first `skip` blocks without observing power:
// the state trajectory of a sampled cycle equals a hidden cycle's, so a
// retried worker can reproduce a dead worker's remaining blocks exactly
// without re-transmitting (or re-weighing) the ones already merged.
// maxBlocks bounds the stream (0 = unbounded); emitting stops early
// when ctx is cancelled or emit returns an error.
//
// Under opts.Breakdown each block additionally carries its per-node
// transition-count delta. budgetRounds is the merge side's total round
// budget ((MaxSamples - seeded samples) / PerRound; 0 = unbounded): the
// merger clips its final block to it, so block b's delta covers
// min(rounds, budgetRounds - b*rounds) rounds even though the block
// always carries the full `rounds` rounds of samples. Outside breakdown
// runs budgetRounds is ignored.
//
// opts contributes WarmupCycles, Mode, Workers and Breakdown; the
// stopping criterion is not consulted — stopping is the merger's job.
func StreamReplications(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, plan vr.Plan, interval, lo, hi, rounds, skip, maxBlocks, budgetRounds int, emit func(ReplicationBlock) error) error {
	if err := opts.Mode.Validate(); err != nil {
		return err
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	switch {
	case interval < 0:
		return fmt.Errorf("core: negative interval %d", interval)
	case lo < 0 || hi <= lo:
		return fmt.Errorf("core: bad replication range [%d, %d)", lo, hi)
	case rounds < 1:
		return fmt.Errorf("core: block rounds %d must be >= 1", rounds)
	case skip < 0:
		return fmt.Errorf("core: negative skip %d", skip)
	case opts.WarmupCycles < 0:
		return fmt.Errorf("core: negative WarmupCycles %d", opts.WarmupCycles)
	}
	n := hi - lo
	workers := opts.Workers
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	useCov := plan.NeedsCovariate()
	packedSampled := wordSampled(tb, opts, plan)

	// The same shard layout as parallelTail (newShards), over the
	// sub-range: contiguous ascending so block assembly is
	// replication-ordered.
	shards, err := newShards(tb, src, baseSeed, opts, plan, lo, hi, workers, packedSampled, useCov)
	if err != nil {
		return err
	}
	// Per-node attribution: each shard counts into a private accumulator
	// and keeps a per-block snapshot (`snap`) taken after the rounds the
	// merge side will actually consume, so the emitted deltas track the
	// merger's clipped final block instead of the full block the stream
	// always carries.
	var prev []uint64
	if opts.Breakdown {
		prev = make([]uint64, tb.Circuit.NumNodes())
	}
	for _, sh := range shards {
		sh.powers = make([]float64, rounds*sh.lanes)
		if opts.Breakdown {
			sh.counts = make([]uint64, tb.Circuit.NumNodes())
			sh.snap = make([]uint64, tb.Circuit.NumNodes())
			sh.ps.AccumulateToggles(sh.counts)
		}
	}

	runShards(shards, workers, func(sh *shard) {
		sh.ps.StepHiddenN(opts.WarmupCycles)
	})
	if skip > 0 {
		// Power observation does not influence the state trajectory, so
		// skipped blocks replay as pure hidden cycles: interval hidden
		// cycles plus the would-be sampled cycle, per round.
		runShards(shards, workers, func(sh *shard) {
			sh.ps.StepHiddenN(skip * rounds * (interval + 1))
		})
	}
	weights := tb.Weights()
	for b := skip; maxBlocks == 0 || b < maxBlocks; b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// The rounds of this block the merge side will consume: the block
		// cadence, clipped by the remaining round budget (mirrors
		// Merger.NextRounds with merged == b*rounds).
		countRounds := rounds
		if budgetRounds > 0 {
			if cr := budgetRounds - b*rounds; cr < countRounds {
				countRounds = cr
			}
			if countRounds < 0 {
				countRounds = 0
			}
		}
		runShards(shards, workers, func(sh *shard) {
			for t := 0; t < rounds; t++ {
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
				if sh.snap != nil && t+1 == countRounds {
					copy(sh.snap, sh.counts)
				}
			}
		})
		samples := make([]float64, 0, rounds*n)
		for t := 0; t < rounds; t++ {
			for _, sh := range shards {
				samples = append(samples, sh.powers[t*sh.lanes:(t+1)*sh.lanes]...)
			}
		}
		var toggles []uint64
		if opts.Breakdown {
			toggles = make([]uint64, len(prev))
			for _, sh := range shards {
				for i, c := range sh.snap {
					toggles[i] += c
				}
			}
			for i := range toggles {
				toggles[i], prev[i] = toggles[i]-prev[i], toggles[i]
			}
		}
		if err := emit(ReplicationBlock{Index: b, Rounds: rounds, Samples: samples, Toggles: toggles}); err != nil {
			return err
		}
	}
	return nil
}
