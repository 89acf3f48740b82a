package cluster

import (
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/sim"
)

// TestClusterCompiledBackendGolden: the golden cross-backend guarantee
// over the wire — a cluster job, whose workers run the compiled engine,
// with one and with two workers, reproduces the single-process *packed*
// reference bit for bit. Only the engine and backend labels differ.
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
	tb, _, err := reg.Resolve(req.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := req.Source.Factory(len(tb.Circuit.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	opts := req.Options.Options()
	opts.Backend = sim.BackendPacked
	want, err := core.EstimateParallel(tb, factory, req.Seed, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want.Engine != sim.EnginePackedZeroDelay || want.Backend != string(sim.BackendPacked) {
		t.Fatalf("reference labels (%q, %q), want the packed oracle", want.Engine, want.Backend)
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
			if got.Engine != sim.EngineCompiledZeroDelay {
				t.Errorf("engine %q, want %q", got.Engine, sim.EngineCompiledZeroDelay)
			}
			if got.Backend != string(sim.BackendCompiled) {
				t.Errorf("backend %q, want %q", got.Backend, sim.BackendCompiled)
			}
			// Everything but the engine/backend labels must equal the
			// packed single-process run.
			got.Engine, got.Backend = want.Engine, want.Backend
			sameResult(t, got, want, tc.name)
			if !got.Converged {
				t.Fatal("cluster run did not converge")
			}
		})
	}
}
