package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/bench89"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// errStopStream is what a test's emit returns to end a stream after the
// blocks it wants.
var errStopStream = errors.New("enough blocks")

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
			opts.pool = 2
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
				if budget := tail.Stream(0, tail.Reps()).BudgetRounds; want.Converged || budget%BlockRounds(opts) == 0 {
					t.Fatalf("budget of %d rounds at %d rounds a block (converged %v) does not end mid-block",
						budget, BlockRounds(opts), want.Converged)
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
				err := StreamReplications(ctx, tb, factory, seed, opts, tail.Stream(b[0], b[1]), func(blk ReplicationBlock) error {
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
	opts.pool = 1
	opts.Replications = 8 // CheckEvery 32 over 8 replications: rounds = 4
	const (
		seed     = int64(5)
		interval = 2
		rounds   = 4
		total    = 6
		skip     = 3
	)
	if got := BlockRounds(opts); got != rounds {
		t.Fatalf("block cadence %d, want %d", got, rounds)
	}

	collect := func(skipBlocks int) [][]float64 {
		var out [][]float64
		st := Stream{Interval: interval, RepLo: 0, RepHi: 8, SkipBlocks: skipBlocks}
		err := StreamReplications(context.Background(), tb, factory, seed, opts, st, func(blk ReplicationBlock) error {
			s := append([]float64(nil), blk.Samples...)
			out = append(out, s)
			if blk.Index == total-1 {
				return errStopStream
			}
			return nil
		})
		if !errors.Is(err, errStopStream) {
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

// TestRangesLayouts pins the layouts the rule gives the jobs whose
// layout it changed or kept, and the inputs on which the aligned split
// it replaced returned empty ranges. Every job cuts at word rows,
// whatever its delay model or variance mode, so 64 replications are
// one shard in process and one range on a 2-worker cluster, and a
// 6-replication control variate is one range.
func TestRangesLayouts(t *testing.T) {
	cases := []struct {
		name   string
		lo, hi int
		want   int
		bounds [][2]int
	}{
		{"64 in process, 2 cores", 0, 64, 2, [][2]int{{0, 64}}},
		{"512 in process, 2 cores", 0, 512, 2, [][2]int{{0, 256}, {256, 512}}},
		{"64 cluster, 2 workers", 0, 64, 8, [][2]int{{0, 64}}},
		{"130 cluster, 2 workers", 0, 130, 8, [][2]int{{0, 64}, {64, 128}, {128, 130}}},
		{"6-replication control variate, 2 workers", 0, 6, 8, [][2]int{{0, 6}}},
		{"one row asked for 3 ranges", 0, 64, 3, [][2]int{{0, 64}}},
		{"16 lanes asked for 8 ranges", 0, 16, 8, [][2]int{{0, 16}}},
		{"a worker's range off lo", 7, 4103, 4, [][2]int{{7, 1031}, {1031, 2055}, {2055, 3079}, {3079, 4103}}},
		{"partial row rides last", 0, 4100, 4, [][2]int{{0, 1088}, {1088, 2112}, {2112, 3136}, {3136, 4100}}},
	}
	for _, tc := range cases {
		got := Ranges(tc.lo, tc.hi, tc.want)
		if !reflect.DeepEqual(got, tc.bounds) {
			t.Errorf("%s: Ranges(%d, %d, want %d) = %v, want %v", tc.name, tc.lo, tc.hi, tc.want, got, tc.bounds)
		}
		for _, b := range got {
			if b[1] <= b[0] {
				t.Errorf("%s: empty range %v", tc.name, b)
			}
		}
	}
}

// TestRangesSweep checks the rule's contract over every span up to 600
// replications and a few around the 512-lane session width: exact
// ascending coverage, no empty range, min(want, ceil(n/64)) ranges,
// interior cuts on word-row multiples counted from lo, sizes balanced
// in whole rows with the partial row last, and no range wider than a
// session once want covers ceil(n/width) as newReplicationRun asks.
func TestRangesSweep(t *testing.T) {
	const row = sim.MaxLanes
	spans := []int{1023, 1025, 4095, 4096, 4160}
	for n := 1; n <= 600; n++ {
		spans = append(spans, n)
	}
	check := func(lo, n, want int, got [][2]int) {
		t.Helper()
		k := min(want, (n+row-1)/row)
		if len(got) != k {
			t.Fatalf("[%d, %d), want %d: %d ranges, want %d", lo, lo+n, want, len(got), k)
		}
		next, minRows, maxRows := lo, n, 0
		for i, b := range got {
			if b[0] != next || b[1] <= b[0] {
				t.Fatalf("[%d, %d), want %d: range %d = %v after %d", lo, lo+n, want, i, b, next)
			}
			size := b[1] - b[0]
			if i < len(got)-1 && size%row != 0 {
				t.Fatalf("[%d, %d), want %d: interior cut %d splits a word row", lo, lo+n, want, b[1])
			}
			c := (size + row - 1) / row
			minRows, maxRows = min(minRows, c), max(maxRows, c)
			next = b[1]
		}
		if next != lo+n {
			t.Fatalf("[%d, %d), want %d: covers up to %d", lo, lo+n, want, next)
		}
		if maxRows-minRows > 1 {
			t.Fatalf("[%d, %d), want %d: unbalanced %v", lo, lo+n, want, got)
		}
	}
	for _, lo := range []int{0, 7} {
		for _, n := range spans {
			for _, want := range []int{1, 2, 3, 8, 16} {
				check(lo, n, want, Ranges(lo, lo+n, want))
				for _, width := range []int{sim.MaxLanes, sim.CompiledMaxLanes} {
					got := Ranges(lo, lo+n, max(want, (n+width-1)/width))
					for _, b := range got {
						if b[1]-b[0] > width {
							t.Fatalf("[%d, %d), want %d: range %v wider than a %d-lane session", lo, lo+n, want, b, width)
						}
					}
				}
			}
		}
	}
}
