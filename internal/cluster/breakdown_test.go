package cluster

import (
	"net/http/httptest"
	"testing"

	"repro/internal/power"
	"repro/internal/service"
)

func sameBreakdown(t *testing.T, got, want *power.BreakdownReport, label string) {
	t.Helper()
	if want == nil || got == nil {
		t.Fatalf("%s: breakdown missing (got %v, want %v)", label, got != nil, want != nil)
	}
	if got.Observations != want.Observations {
		t.Errorf("%s: observations %d, want %d", label, got.Observations, want.Observations)
	}
	if got.Dynamic != want.Dynamic {
		t.Errorf("%s: dynamic %v, want %v (bit-identical)", label, got.Dynamic, want.Dynamic)
	}
	if got.Leakage != want.Leakage {
		t.Errorf("%s: leakage %v, want %v", label, got.Leakage, want.Leakage)
	}
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d rows, want %d", label, len(got.Rows), len(want.Rows))
	}
	for i := range got.Rows {
		if got.Rows[i] != want.Rows[i] {
			t.Fatalf("%s: row %d = %+v, want %+v", label, i, got.Rows[i], want.Rows[i])
		}
	}
}

// TestClusterBreakdownBitIdentical is the distributed-attribution
// golden: per-node toggle counts folded from worker stream deltas must
// reproduce the local accumulator bit for bit — same rows, same watts —
// with one worker and with the replication space split across two.
// Each job spans five word rows, the last one partial, so one worker
// runs it as 4 ranges and two workers as 5. The clipped-budget case
// stops at the sample cap, not at convergence, so the budget, not the
// criterion, ends every range's stream; core's
// TestMergerStreamedRangesMatchParallel covers a budget that ends
// mid-block.
func TestClusterBreakdownBitIdentical(t *testing.T) {
	w1, w2 := NewWorker(WorkerConfig{}), NewWorker(WorkerConfig{})
	s1 := httptest.NewServer(w1.Handler())
	defer s1.Close()
	s2 := httptest.NewServer(w2.Handler())
	defer s2.Close()

	reg := service.NewRegistry(0)
	coordOne := newTestCoordinator(t, s1.URL)
	coordTwo := newTestCoordinator(t, s1.URL, s2.URL)

	cases := []struct {
		name string
		req  service.JobRequest
	}{
		{"converged", service.JobRequest{
			Circuit: "s298", Seed: 42,
			Options: service.OptionsSpec{Replications: 300, Breakdown: true},
		}},
		{"zero-delay", service.JobRequest{
			Circuit: "s298", Seed: 1997,
			Options: service.OptionsSpec{Replications: 300, PowerMode: "zero-delay", Breakdown: true},
		}},
		{"clipped-budget", service.JobRequest{
			Circuit: "s298", Seed: 7,
			Options: service.OptionsSpec{Replications: 300, Breakdown: true,
				RelErr: 0.005, MaxSamples: 1000},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := reference(t, reg, tc.req)
			if want.Breakdown == nil {
				t.Fatal("local reference produced no breakdown")
			}
			if tc.name == "clipped-budget" && want.Converged {
				t.Fatal("clipped-budget case converged; raise RelErr pressure so the cap bites")
			}
			var splits []int
			for _, cl := range []struct {
				label string
				coord *Coordinator
			}{{"one-worker", coordOne}, {"two-workers", coordTwo}} {
				got, ranges := estimateRanges(t, cl.coord, reg, tc.req, nil)
				sameResult(t, got, want, tc.name+"/"+cl.label)
				sameBreakdown(t, got.Breakdown, want.Breakdown, tc.name+"/"+cl.label)
				if ranges < 2 {
					t.Errorf("%s/%s: %d replication range ran, want the job split", tc.name, cl.label, ranges)
				}
				splits = append(splits, ranges)
			}
			if splits[0] == splits[1] {
				t.Errorf("%s: one and two workers both ran %d ranges, want two different splits", tc.name, splits[0])
			}
		})
	}
}
