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
// with one worker and with the replication space split across two. The
// zero-delay job spans three word rows, the last one partial, so it
// runs as several word-row ranges. The clipped-budget case ends
// mid-block at the sample cap, exercising the
// BudgetRounds snapshot that keeps the final block's count delta
// aligned with the rounds the merger actually consumes.
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
			Options: service.OptionsSpec{Replications: 16, Breakdown: true},
		}},
		{"zero-delay", service.JobRequest{
			Circuit: "s298", Seed: 1997,
			Options: service.OptionsSpec{Replications: 130, PowerMode: "zero-delay", Breakdown: true},
		}},
		{"clipped-budget", service.JobRequest{
			Circuit: "s298", Seed: 7,
			Options: service.OptionsSpec{Replications: 16, Breakdown: true,
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
			}
		})
	}
}
