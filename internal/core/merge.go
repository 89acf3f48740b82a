package core

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/stopping"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// This file is the sampling tail of the parallel estimator, exported so
// the distributed coordinator (internal/cluster) can shard the
// replication space across processes while keeping the paper's
// sequential stopping rule statistically — and bit-for-bit — intact:
//
//   - Merger owns the pooled stopping criterion and merges blocks of
//     per-replication samples in the canonical order (round-major,
//     ascending replication index).
//   - Tail is the one merge loop around it: the budget rule, progress,
//     the trace's merge-round events, the breakdown fold and the
//     Result. The in-process estimator feeds it blocks from one
//     replicationRun over every replication; the coordinator feeds it
//     the blocks its worker streams deliver.
//   - Stream is one contiguous sub-range's block stream (range, plan,
//     interval, skip, breakdown round budget), handed out by
//     Tail.Stream and checked by one Validate against the job's
//     options. StreamReplications is the worker side: one
//     replicationRun over that range, emitting its samples in
//     round-blocks.
//   - The block cadence (BlockRounds) and the block budget (MaxBlocks)
//     are functions of the job's options, so the merger, the
//     coordinator and every worker compute them alike; no stream
//     carries them.
//
// Determinism contract: replication r is always seeded baseSeed+1+r, a
// replication's sample stream depends only on its own seed (lanes are
// independent), and the merge order is a pure function of
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
	start time.Time // sampling-phase start, for Progress.Elapsed
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
	reps, rounds, perRound := blockShape(opts)
	m := &Merger{
		crit:       opts.NewCriterion(opts.Spec),
		reps:       reps,
		rounds:     rounds,
		maxSamples: opts.MaxSamples,
		pairing:    opts.Variance.Mode.Canonical() == vr.ModeAntithetic,
		perRound:   perRound,
		met:        opts.Metrics,
		start:      time.Now(),
	}
	if m.met != nil {
		m.met.Runs.Inc()
	}
	if m.pairing {
		m.round = make([]float64, 0, reps)
		m.pairs = make([]float64, 0, m.perRound)
	}
	return m, nil
}

// blockShape returns the replication-space width, the block cadence
// and the criterion samples per merged round of a run under opts.
func blockShape(opts Options) (reps, rounds, perRound int) {
	reps = opts.Replications
	if reps == 0 {
		reps = sim.MaxLanes
	}
	rounds = max(1, opts.CheckEvery/reps)
	perRound = reps
	if opts.Variance.Mode.Canonical() == vr.ModeAntithetic {
		perRound = reps / 2
	}
	return reps, rounds, perRound
}

// BlockRounds returns the block cadence of a run under opts (which must
// validate): the rounds one full block carries, max(1,
// CheckEvery/Replications). The merger merges at it and a stream's
// producer emits at it.
func BlockRounds(opts Options) int {
	_, rounds, _ := blockShape(opts)
	return rounds
}

// MaxBlocks bounds a block stream of a run under opts (which must
// validate): strictly more blocks than Tail.Run can merge before the
// sample budget stops it (per criterion sample, not per replication:
// antithetic pairing halves the criterion samples a round yields,
// doubling the blocks the budget funds). A stream ends there, so an
// orphaned worker stream stays finite, and Stream.Validate refuses to
// skip past it.
func MaxBlocks(opts Options) int {
	_, rounds, perRound := blockShape(opts)
	return opts.MaxSamples/(perRound*rounds) + 2
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
		// One telemetry update per merged block.
		m.met.Rounds.Add(uint64(n))
		m.met.Samples.Add(uint64(n * m.perRound))
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

// finishBreakdown builds the per-node attribution report for a sampling
// phase whose merged samples produced the given transition counts. It
// folds the phase-1 seed toggles into total in place — exactly when the
// seed sequence also seeded the criterion (opts.ReuseTestSamples), so
// counts and samples stay in lockstep — computes the observation
// denominator (seeded samples plus one sample per replication per
// merged round), and ranks the report against the testbench's power
// model.
func finishBreakdown(tb *Testbench, opts Options, m *Merger, seedLen int, seedToggles, total []uint64) *power.BreakdownReport {
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
// sizes differ by at most one, in ascending order. Replication r keeps
// its seed in any contiguous partition and blocks merge in replication
// order, so every partition merges the same samples in the same order:
// the layout of a job never changes its result. Ranges builds the
// layouts the estimator and the cluster run on it.
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

// Ranges is the one layout rule of the replication space. It cuts
// replications [lo, hi) into the shards of an in-process run or of a
// cluster worker's range, and into the coordinator's cluster ranges,
// whatever the job's delay model or variance mode. Its unit of work is
// a word row of sim.MaxLanes replications: a compiled pass costs the
// same for one lane of a row as for all of them, and so does a pass of
// the event-driven lane engine that observes a general-delay job's
// sampled cycles. It returns min(want, ceil((hi-lo)/sim.MaxLanes))
// ascending ranges balanced in whole rows, the partial row last, so no
// range is empty and none splits a word row. want must be at least 1.
// The layout depends on the span and want alone, not on the resolved
// plan, so it is known before the pre-sampling phases end.
func Ranges(lo, hi, want int) [][2]int {
	// SplitRange over the whole and partial rows of [lo, hi), so the
	// interior cuts fall on multiples of sim.MaxLanes counted from lo.
	rows := (hi - lo + sim.MaxLanes - 1) / sim.MaxLanes
	out := SplitRange(0, rows, min(want, rows))
	for i, b := range out {
		out[i] = [2]int{lo + b[0]*sim.MaxLanes, min(lo+b[1]*sim.MaxLanes, hi)}
	}
	return out
}

// ReplicationBlock is one round-block of samples from a contiguous
// replication range, round-major with replications ascending within a
// round. It is also the block line of a cluster worker's stream:
// encoding/json renders float64 in shortest round-trip form, so the wire
// format is lossless and a merged estimate stays bit-identical to a
// local run.
type ReplicationBlock struct {
	// Index is the block's position in the stream (0-based, counting
	// skipped blocks).
	Index int `json:"b"`
	// Samples holds the block's rounds × lanes power samples, round-major.
	Samples []float64 `json:"s"`
	// Toggles holds the block's per-node transition-count delta (indexed
	// by NodeID, summed over the range's replications), present only
	// under Options.Breakdown. The delta covers exactly the rounds of
	// this block the merge side consumes — the block cadence, clipped by
	// the sample budget — so folding the deltas of the merged blocks
	// reproduces the in-process accumulator bit for bit. Integers survive
	// JSON exactly below 2^53, a bound no single block can reach.
	Toggles []uint64 `json:"c,omitempty"`
}

// Stream is one replication range's block stream of a sampling phase:
// what a producer needs, beside the job's testbench, source, seed and
// options, to emit the blocks the merge loop consumes. Tail.Stream
// hands one out per range; a cluster worker receives it inside its run
// request, whose wire keys are these JSON tags. The block cadence
// (BlockRounds) and the block budget (MaxBlocks) are not part of it:
// every party derives both from the job's options, as the merger does.
type Stream struct {
	// Plan is the resolved variance-reduction plan (ResolvePlan; zero
	// value = plain estimation). Under the control-variate mode each
	// emitted sample is already transformed (Y = X - beta (C - mu_C));
	// under antithetic pairing samples stream raw and the Merger
	// reduces assembled rounds to pair means, so pairs may span range
	// boundaries. encoding/json's shortest round-trip float rendering
	// keeps the coefficients lossless on the wire.
	Plan vr.Plan `json:"vr,omitzero"`
	// Interval is the independence interval the phase samples at.
	Interval int `json:"interval"`
	// RepLo and RepHi bound the replication range (half-open).
	RepLo int `json:"repLo"`
	RepHi int `json:"repHi"`
	// SkipBlocks fast-forwards the first blocks without observing power:
	// the state trajectory of a sampled cycle equals a hidden cycle's,
	// so a retried range reproduces a lost stream's remaining blocks
	// exactly without re-sending the ones already merged.
	SkipBlocks int `json:"skipBlocks,omitempty"`
	// BudgetRounds is the merge side's total round budget under
	// Options.Breakdown (0 = unbounded; outside breakdown runs it is
	// ignored). The merger clips its final block to it, so block b's
	// toggle delta covers min(rounds, BudgetRounds - b*rounds) rounds
	// even though the block always carries the full cadence of samples.
	BudgetRounds int `json:"budgetRounds,omitempty"`
}

// Validate rejects a stream the job's options do not allow, before a
// producer allocates anything: the range must lie inside the job's
// replication space, the skip inside its block budget (MaxBlocks), and
// the plan's mode must be the one Options.Variance asks for, because a
// producer lays its shards out from the options: a control-variate plan
// under plain zero-delay options would reach zero-delay shard sessions,
// which have no event-driven sample to pair the covariate with. opts
// must validate.
func (s Stream) Validate(opts Options) error {
	reps, _, _ := blockShape(opts)
	budget := MaxBlocks(opts)
	switch {
	case s.Interval < 0:
		return fmt.Errorf("core: negative interval %d", s.Interval)
	case s.RepLo < 0 || s.RepHi <= s.RepLo:
		return fmt.Errorf("core: bad replication range [%d, %d)", s.RepLo, s.RepHi)
	case s.RepHi > reps:
		return fmt.Errorf("core: replication range [%d, %d) outside the job's %d replications", s.RepLo, s.RepHi, reps)
	case s.SkipBlocks < 0 || s.SkipBlocks > budget:
		return fmt.Errorf("core: skip of %d blocks outside the job's budget of %d blocks", s.SkipBlocks, budget)
	case s.BudgetRounds < 0:
		return fmt.Errorf("core: negative round budget %d", s.BudgetRounds)
	}
	if err := s.Plan.Validate(); err != nil {
		return err
	}
	if got, want := s.Plan.Mode.Canonical(), opts.Variance.Mode.Canonical(); got != want {
		return fmt.Errorf("core: plan mode %q differs from the job's variance mode %q", got, want)
	}
	return nil
}

// StreamReplications runs stream s of an EstimateParallel-shaped run
// under opts and emits its power samples, one block of BlockRounds(opts)
// rounds at a time, from block s.SkipBlocks up to MaxBlocks(opts). It is
// the in-process estimator's block producer over a sub-range, so the
// emitted samples are bit-identical to the corresponding lanes of a
// single-process run, regardless of how Ranges cuts the range into
// shards or how many goroutines run them. Emitting stops early when ctx
// is cancelled or emit returns an error. Under opts.Breakdown each
// block additionally carries its per-node transition-count delta,
// clipped to s.BudgetRounds. The stopping criterion is not consulted:
// stopping is the merger's job.
func StreamReplications(ctx context.Context, tb *Testbench, src vectors.Factory, baseSeed int64, opts Options, s Stream, emit func(ReplicationBlock) error) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if err := s.Validate(opts); err != nil {
		return err
	}
	run, err := newReplicationRun(tb, src, baseSeed, opts, s.RepLo, s.RepHi)
	if err != nil {
		return err
	}
	if err := run.bind(s.Interval, s.Plan); err != nil {
		return err
	}
	rounds := BlockRounds(opts)
	run.warm(ctx, s.SkipBlocks*rounds)
	for b := s.SkipBlocks; b < MaxBlocks(opts); b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// The rounds of this block the merge side will consume: the block
		// cadence, clipped by the remaining round budget (mirrors
		// Merger.NextRounds with merged == b*rounds).
		clip := rounds
		if s.BudgetRounds > 0 {
			clip = max(0, min(rounds, s.BudgetRounds-b*rounds))
		}
		if err := emit(run.block(b, rounds, clip)); err != nil {
			return err
		}
	}
	return nil
}

// Tail is the one merge loop of the sampling phase. It owns the pooled
// stopping criterion, the budget rule, progress reports, the trace's
// merge-round events, the breakdown fold and the Result, whoever
// produces the blocks: the in-process estimator pulls them from one
// replicationRun, the cluster coordinator from its worker streams.
type Tail struct {
	tb     *Testbench
	opts   Options
	rp     ResumePoint
	m      *Merger
	budget int // Stream.BudgetRounds
}

// NewTail builds the merge loop of a sampling phase that starts from
// rp: a Merger for opts, seeded with rp.SeedSeq under
// Options.ReuseTestSamples. opts must validate and rp.Interval must not
// be negative.
func NewTail(tb *Testbench, opts Options, rp ResumePoint) (*Tail, error) {
	if rp.Interval < 0 {
		return nil, fmt.Errorf("core: negative interval %d", rp.Interval)
	}
	m, err := NewMerger(opts)
	if err != nil {
		return nil, err
	}
	if opts.ReuseTestSamples {
		m.Seed(rp.SeedSeq)
	}
	t := &Tail{tb: tb, opts: opts, rp: rp, m: m}
	if opts.Breakdown {
		t.budget = (opts.MaxSamples - m.N()) / m.PerRound()
	}
	return t, nil
}

// Reps returns the width of the replication space.
func (t *Tail) Reps() int { return t.m.Reps() }

// Stream returns the stream of replications [lo, hi) that feeds Run:
// the resume point's interval and plan, and under Options.Breakdown the
// total number of rounds the sample budget lets Run merge, to which a
// producer clips each block's toggle delta.
func (t *Tail) Stream(lo, hi int) Stream {
	return Stream{Plan: t.rp.Plan, Interval: t.rp.Interval, RepLo: lo, RepHi: hi, BudgetRounds: t.budget}
}

// Run merges blocks into the pooled criterion until it converges, the
// sample budget cannot fund another round, ctx ends, next fails or a
// block is malformed. lanes are the widths of the contiguous ranges
// that tile the replication space in ascending order. next(b, n)
// returns block b of every range, in that order, each with at least n
// rounds of samples and, under Options.Breakdown, the toggle delta of
// exactly its first n rounds.
//
// Every exit reports a final progress snapshot and returns the Result
// of the merged prefix: cycle counters, breakdown and all are
// independent of how far ahead a producer ran. A Tail runs once.
func (t *Tail) Run(ctx context.Context, lanes []int, next func(b, n int) ([]ReplicationBlock, error)) (Result, error) {
	var counts []uint64
	if t.opts.Breakdown {
		counts = make([]uint64, t.tb.Circuit.NumNodes())
	}
	tr := obs.TraceFrom(ctx)
	samples := make([][]float64, len(lanes))
	for b := 0; !t.m.Done(); b++ {
		if err := ctx.Err(); err != nil {
			return t.result(false, counts), err
		}
		// Merge as many whole rounds as the sample budget allows (one
		// round is the reps-sample granularity of the parallel scheme);
		// give up unconverged only when not even one more round fits.
		n := t.m.NextRounds()
		if n < 1 {
			return t.result(false, counts), nil
		}
		blocks, err := next(b, n)
		if err != nil {
			return t.result(false, counts), err
		}
		if len(blocks) != len(lanes) {
			return t.result(false, counts), fmt.Errorf("core: block %d: %d ranges delivered, want %d", b, len(blocks), len(lanes))
		}
		for i, blk := range blocks {
			if len(blk.Toggles) != len(counts) {
				return t.result(false, counts), fmt.Errorf("core: block %d of range %d carries %d toggle counts, want %d", b, i, len(blk.Toggles), len(counts))
			}
			samples[i] = blk.Samples
		}
		if err := t.m.MergeBlock(samples, lanes, n); err != nil {
			return t.result(false, counts), err
		}
		// Fold the deltas once their samples are merged, so the counts
		// always cover exactly the merged prefix.
		for _, blk := range blocks {
			for j, d := range blk.Toggles {
				counts[j] += d
			}
		}
		tr.Event("merge-round",
			"rounds", strconv.Itoa(t.m.MergedRounds()),
			"samples", strconv.Itoa(t.m.N()),
			"power", strconv.FormatFloat(t.m.Estimate(), 'g', 6, 64),
			"halfWidth", strconv.FormatFloat(t.m.HalfWidth(), 'g', 6, 64))
		if t.opts.Progress != nil {
			t.opts.Progress(t.m.Progress(t.rp.Interval))
		}
	}
	return t.result(true, counts), nil
}

// result reports the final progress snapshot and builds the Result of
// the merged prefix. Cycle counters are the resume point's plus the
// warm-up and, per merged round and replication, interval hidden
// cycles and one sampled cycle.
func (t *Tail) result(converged bool, counts []uint64) Result {
	m, opts, rp := t.m, t.opts, t.rp
	// The final snapshot keeps long-running callers (the dipe-server job
	// manager) from showing a stale last block after convergence, budget
	// exhaustion or cancellation.
	if opts.Progress != nil {
		opts.Progress(m.Progress(rp.Interval))
	}
	reps, merged := uint64(m.Reps()), uint64(m.MergedRounds())
	engine, delayModel := engineLabels(t.tb, opts)
	res := Result{
		Power:          m.Estimate(),
		Interval:       rp.Interval,
		IntervalCapped: rp.Capped,
		Trials:         rp.Trials,
		SampleSize:     m.N(),
		HalfWidth:      m.HalfWidth(),
		HiddenCycles:   rp.Hidden + reps*uint64(opts.WarmupCycles) + merged*uint64(rp.Interval)*reps,
		SampledCycles:  rp.Sampled + merged*reps,
		Criterion:      m.CriterionName(),
		Engine:         engine,
		DelayModel:     delayModel,
		Variance:       rp.Plan.Label(),
		CVBeta:         rp.Plan.Beta,
		Converged:      converged,
	}
	if opts.Breakdown {
		res.Breakdown = finishBreakdown(t.tb, opts, m, len(rp.SeedSeq), rp.SeedToggles, counts)
		if opts.Metrics != nil {
			opts.Metrics.Power.Observe(res.Breakdown)
		}
	}
	return res
}
