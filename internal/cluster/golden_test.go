package cluster

import (
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestClusterCompiledBackendGolden: the golden guarantee over the wire
// — a cluster job, whose workers run the compiled engine, with one and
// with two workers, reproduces the single-process estimate of the
// packed oracle bit for bit. The golden was recorded from that
// estimate on the interpreted sim.PackedSession; only its engine label
// ("packed-zero-delay" then) differs from the compiled engine's.
func TestClusterCompiledBackendGolden(t *testing.T) {
	w1, w2 := NewWorker(WorkerConfig{}), NewWorker(WorkerConfig{})
	s1 := httptest.NewServer(w1.Handler())
	defer s1.Close()
	s2 := httptest.NewServer(w2.Handler())
	defer s2.Close()

	reg := service.NewRegistry(0)
	req := service.JobRequest{
		Circuit: "s298", Seed: 404,
		Options: service.OptionsSpec{Replications: 96, PowerMode: "zero-delay"},
	}
	want := core.Result{
		Power: 0.00029318044354838745, HalfWidth: 1.4296874999999987e-05, SampleSize: 992, Interval: 2,
		HiddenCycles: 51968, SampledCycles: 1632, Criterion: "order-statistics", Converged: true,
		Engine: sim.EngineCompiledZeroDelay, DelayModel: "zero",
	}

	for _, tc := range []struct {
		name string
		urls []string
	}{
		{"one-worker", []string{s1.URL}},
		{"two-workers", []string{s1.URL, s2.URL}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			coord := newTestCoordinator(t, tc.urls...)
			got, err := estimate(t, coord, reg, req)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, got, want, tc.name)
		})
	}
}
