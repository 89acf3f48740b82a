package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bench89"
	"repro/internal/power"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// TestMergerStreamedRangesMatchParallel is the merge-path contract in
// miniature, with no transport in the loop: running the replication
// space as two uneven StreamReplications ranges and merging their
// blocks through Tail.Run reproduces EstimateParallelResumeCtx from the
// same ResumePoint in every Result field — the exact mechanism the
// cluster coordinator is built on. The table covers every mode whose
// samples or counts the producer shapes: both power modes, both
// variance-reduction transforms (the odd range boundary splits an
// antithetic pair), and breakdown, once converged and once stopped by a
// sample budget that ends mid-block, so the final block's toggle delta
// is clipped.
func TestMergerStreamedRangesMatchParallel(t *testing.T) {
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	const seed = int64(99)
	cases := []struct {
		name string
		set  func(*Options)
	}{
		{"general-delay", func(*Options) {}},
		{"zero-delay", func(o *Options) { o.Mode = power.ModeZeroDelay }},
		{"control-variate", func(o *Options) { o.Variance.Mode = vr.ModeControlVariate }},
		{"antithetic", func(o *Options) { o.Variance.Mode = vr.ModeAntithetic }},
		{"breakdown", func(o *Options) { o.Breakdown = true }},
		{"breakdown clipped", func(o *Options) {
			// 16 replications make a block two rounds; the budget funds
			// (432 - 320 seeded) / 16 = 7 rounds, so the fourth block is
			// merged for one of its two rounds.
			o.Breakdown = true
			o.Replications = 16
			o.MaxSamples = 432
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Replications = 24
			opts.Workers = 2
			// A tighter budget keeps the eagerly-streamed queues (MaxBlocks
			// blocks each) test-sized; s298 converges well under it.
			opts.MaxSamples = 1 << 16
			tc.set(&opts)
			ctx := context.Background()
			rp, err := PreparePlanCtx(ctx, tb, factory, seed, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := EstimateParallelResumeCtx(ctx, tb, factory, seed, opts, rp)
			if err != nil {
				t.Fatal(err)
			}
			tail, err := NewTail(tb, opts, rp)
			if err != nil {
				t.Fatal(err)
			}
			if opts.Breakdown && opts.MaxSamples < 1<<16 {
				if want.Converged || tail.BudgetRounds()%tail.Rounds() == 0 {
					t.Fatalf("budget of %d rounds at %d rounds a block (converged %v) does not end mid-block",
						tail.BudgetRounds(), tail.Rounds(), want.Converged)
				}
			} else if !want.Converged {
				t.Fatal("reference run did not converge")
			}

			// Two uneven contiguous ranges, streamed eagerly into block
			// queues (like worker streams read ahead of the merge loop).
			reps := tail.Reps()
			bounds := [][2]int{{0, 11}, {11, reps}}
			queues := make([][]ReplicationBlock, len(bounds))
			for i, b := range bounds {
				err := StreamReplications(ctx, tb, factory, seed, opts, rp.Plan, rp.Interval, b[0], b[1],
					tail.Rounds(), 0, tail.MaxBlocks(), tail.BudgetRounds(), func(blk ReplicationBlock) error {
						queues[i] = append(queues[i], blk)
						return nil
					})
				if err != nil {
					t.Fatal(err)
				}
			}
			got, err := tail.Run(ctx, []int{11, reps - 11}, func(b, n int) ([]ReplicationBlock, error) {
				return []ReplicationBlock{queues[0][b], queues[1][b]}, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			got.Elapsed, want.Elapsed = 0, 0
			if !reflect.DeepEqual(got, want) {
				t.Errorf("merged streams:\n%+v\nwant\n%+v", got, want)
			}
			if opts.Breakdown && !reflect.DeepEqual(got.Breakdown, want.Breakdown) {
				t.Errorf("merged breakdown:\n%+v\nwant\n%+v", got.Breakdown, want.Breakdown)
			}
		})
	}
}

// TestTailRunMalformedBlocks: a malformed block ends Tail.Run with an
// error and the Result of the prefix merged before it — never a panic,
// and never a silently ignored field.
func TestTailRunMalformedBlocks(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	nodes := c.NumNodes()
	const reps = 8
	seedSeq := make([]float64, 320)
	for i := range seedSeq {
		seedSeq[i] = float64(i%7) + 1
	}
	cases := []struct {
		name      string
		breakdown bool
		bad       func(good ReplicationBlock) []ReplicationBlock
	}{
		{"toggles without breakdown", false, func(g ReplicationBlock) []ReplicationBlock {
			g.Toggles = make([]uint64, nodes)
			return []ReplicationBlock{g}
		}},
		{"wrong toggle length", true, func(g ReplicationBlock) []ReplicationBlock {
			g.Toggles = g.Toggles[:nodes-1]
			return []ReplicationBlock{g}
		}},
		{"wrong number of blocks", false, func(g ReplicationBlock) []ReplicationBlock {
			return []ReplicationBlock{g, g}
		}},
		{"too few samples", false, func(g ReplicationBlock) []ReplicationBlock {
			g.Samples = g.Samples[:len(g.Samples)-1]
			return []ReplicationBlock{g}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Replications = reps
			opts.Breakdown = tc.breakdown
			opts.Spec.RelErr = 1e-4 // never converges on these samples
			tail, err := NewTail(tb, opts, ResumePoint{Interval: 2, SeedSeq: seedSeq})
			if err != nil {
				t.Fatal(err)
			}
			merged := 0
			res, err := tail.Run(context.Background(), []int{reps}, func(b, n int) ([]ReplicationBlock, error) {
				good := ReplicationBlock{Index: b, Samples: make([]float64, n*reps)}
				for i := range good.Samples {
					good.Samples[i] = float64(i%5) + 1
				}
				if tc.breakdown {
					good.Toggles = make([]uint64, nodes)
				}
				if b == 0 {
					merged = n
					return []ReplicationBlock{good}, nil
				}
				return tc.bad(good), nil
			})
			if err == nil {
				t.Fatal("malformed block accepted")
			}
			if res.Converged || res.SampleSize != len(seedSeq)+merged*reps || res.SampledCycles != uint64(merged*reps) {
				t.Errorf("partial result %+v, want the %d seeded samples plus one merged block of %d rounds", res, len(seedSeq), merged)
			}
			if (res.Breakdown != nil) != tc.breakdown {
				t.Errorf("breakdown report %v on a run with breakdown %v", res.Breakdown, tc.breakdown)
			}
		})
	}
}

// TestStreamReplicationsSkipFastForward: a stream started with
// SkipBlocks=k reproduces blocks k, k+1, ... of the unskipped stream
// exactly — the property worker reassignment rests on.
func TestStreamReplicationsSkipFastForward(t *testing.T) {
	c := bench89.MustGet("s27")
	tb := DefaultTestbench(c)
	factory := vectors.IIDFactory(len(c.Inputs), 0.5)
	opts := DefaultOptions()
	opts.Workers = 1
	const (
		seed     = int64(5)
		interval = 2
		rounds   = 4
		total    = 6
		skip     = 3
	)

	collect := func(skipBlocks int) [][]float64 {
		var out [][]float64
		err := StreamReplications(context.Background(), tb, factory, seed, opts,
			vr.Plan{}, interval, 0, 8, rounds, skipBlocks, total, 0, func(blk ReplicationBlock) error {
				s := append([]float64(nil), blk.Samples...)
				out = append(out, s)
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	full := collect(0)
	resumed := collect(skip)
	if len(full) != total || len(resumed) != total-skip {
		t.Fatalf("block counts %d/%d, want %d/%d", len(full), len(resumed), total, total-skip)
	}
	for i, blk := range resumed {
		want := full[skip+i]
		for j := range blk {
			if blk[j] != want[j] {
				t.Fatalf("resumed block %d sample %d = %v, want %v (not bit-identical)", skip+i, j, blk[j], want[j])
			}
		}
	}
}

// TestSplitRangeAligned checks the aligned partition rule: exact
// coverage of [lo, hi) in ascending order, all interior boundaries at
// multiples of align (relative to lo), the remainder absorbed by the
// last range, and graceful degradation to SplitRange when the span is
// too small to align or align <= 1.
func TestSplitRangeAligned(t *testing.T) {
	cases := []struct {
		lo, hi, k, align int
	}{
		{0, 4096, 4, 512}, // exact multiple: equal aligned quarters
		{0, 4100, 4, 512}, // remainder rides on the last range
		{0, 1536, 4, 512}, // fewer aligned units than ranges
		{0, 100, 3, 512},  // span smaller than one unit
		{0, 100, 3, 1},    // align disabled
		{7, 4103, 4, 512}, // non-zero lo: alignment is relative to lo
		{0, 513, 2, 512},  // one unit plus remainder
		{0, 64, 64, 8},    // many ranges, few units
	}
	for _, tc := range cases {
		got := SplitRangeAligned(tc.lo, tc.hi, tc.k, tc.align)
		if len(got) != tc.k {
			t.Fatalf("SplitRangeAligned(%d,%d,%d,%d): %d ranges, want %d", tc.lo, tc.hi, tc.k, tc.align, len(got), tc.k)
		}
		next := tc.lo
		for i, b := range got {
			if b[0] != next || b[1] < b[0] {
				t.Fatalf("SplitRangeAligned(%d,%d,%d,%d): range %d = %v breaks coverage at %d", tc.lo, tc.hi, tc.k, tc.align, i, b, next)
			}
			if tc.align > 1 && i < tc.k-1 && (b[1]-tc.lo)%tc.align != 0 && b[1] != tc.hi {
				t.Fatalf("SplitRangeAligned(%d,%d,%d,%d): interior boundary %d not aligned", tc.lo, tc.hi, tc.k, tc.align, b[1])
			}
			next = b[1]
		}
		if next != tc.hi {
			t.Fatalf("SplitRangeAligned(%d,%d,%d,%d): covers up to %d, want %d", tc.lo, tc.hi, tc.k, tc.align, next, tc.hi)
		}
	}
	// align <= 1 must be SplitRange exactly.
	a, b := SplitRangeAligned(3, 77, 5, 1), SplitRange(3, 77, 5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("align=1: range %d = %v, SplitRange %v", i, a[i], b[i])
		}
	}
}
