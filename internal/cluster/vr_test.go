package cluster

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestClusterVRModesBitIdentical is the distributed half of the
// variance-reduction conformance suite: for every VR mode, a cluster
// run with 1 worker and with 2 workers must reproduce
// core.EstimateParallel bit for bit — mean, half-width, sample size and
// cycle counts — under both the dynamic-selection and fixed-interval
// paths. Each job spans five word rows, the last one partial, so one
// worker runs it as 4 ranges and two workers as 5, and antithetic pairs
// merge from several word-row ranges. The plan (including the
// regression-estimated coefficient and
// covariate mean) is resolved at the coordinator and shipped on the
// wire, so any divergence would surface here.
func TestClusterVRModesBitIdentical(t *testing.T) {
	w1, w2 := NewWorker(WorkerConfig{}), NewWorker(WorkerConfig{})
	s1 := httptest.NewServer(w1.Handler())
	defer s1.Close()
	s2 := httptest.NewServer(w2.Handler())
	defer s2.Close()

	reg := service.NewRegistry(0)
	coordOne := newTestCoordinator(t, s1.URL)
	coordTwo := newTestCoordinator(t, s1.URL, s2.URL)

	fixed := 3
	cases := []struct {
		name string
		req  service.JobRequest
	}{
		{"antithetic", service.JobRequest{
			Circuit: "s298", Seed: 42,
			Options: service.OptionsSpec{Replications: 300, Variance: "antithetic"},
		}},
		{"antithetic-zero-delay", service.JobRequest{
			Circuit: "s298", Seed: 19,
			Options: service.OptionsSpec{Replications: 300, Variance: "antithetic", PowerMode: "zero-delay"},
		}},
		{"control-variate", service.JobRequest{
			Circuit: "s298", Seed: 1997,
			Options: service.OptionsSpec{Replications: 300, Variance: "control-variate"},
		}},
		{"control-variate-fixed-interval", service.JobRequest{
			Circuit: "s298", Seed: 7,
			Options:  service.OptionsSpec{Replications: 300, Variance: "control-variate"},
			Interval: &fixed,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := reference(t, reg, tc.req)
			if want.Variance == "" {
				t.Fatalf("reference run carries no variance mode")
			}
			one, oneRanges := estimateRanges(t, coordOne, reg, tc.req, nil)
			sameResult(t, one, want, tc.name+"/1-worker")
			two, twoRanges := estimateRanges(t, coordTwo, reg, tc.req, nil)
			sameResult(t, two, want, tc.name+"/2-workers")
			if !two.Converged {
				t.Error("cluster VR run did not converge")
			}
			if oneRanges < 2 || twoRanges < 2 || oneRanges == twoRanges {
				t.Errorf("%d and %d replication ranges ran on one and two workers, want two different splits", oneRanges, twoRanges)
			}
		})
	}
}

// TestHeartbeatLivenessClockInjected drives the coordinator's heartbeat
// with an injected clock — no wall-clock sleeps anywhere — through a
// full death/recovery cycle: a worker that starts failing its health
// endpoint is taken out of rotation on the next heartbeat, and rejoins
// on the first heartbeat after it recovers.
func TestHeartbeatLivenessClockInjected(t *testing.T) {
	var failing atomic.Bool
	inner := NewWorker(WorkerConfig{}).Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	tick := make(chan time.Time)
	probed := make(chan struct{})
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:   []string{srv.URL},
		Heartbeat: time.Hour, // irrelevant: the injected clock drives the loop
		tick:      tick,
		probed:    probed,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	alive := func() bool {
		ws := coord.Workers()
		if len(ws) != 1 {
			t.Fatalf("worker table holds %d entries", len(ws))
		}
		return ws[0].Alive
	}
	beat := func() {
		t.Helper()
		select {
		case tick <- time.Now():
		case <-time.After(10 * time.Second):
			t.Fatal("heartbeat loop never consumed the injected tick")
		}
		select {
		case <-probed:
		case <-time.After(10 * time.Second):
			t.Fatal("heartbeat round never completed")
		}
	}

	// Registration probed the live worker synchronously.
	if !alive() {
		t.Fatal("worker not alive after registration probe")
	}
	if err := coord.Ready(); err != nil {
		t.Fatalf("not ready with a live worker: %v", err)
	}

	// The worker wedges; the next heartbeat must take it out.
	failing.Store(true)
	beat()
	if alive() {
		t.Fatal("wedged worker still alive after a heartbeat")
	}
	if err := coord.Ready(); err == nil {
		t.Fatal("ready with no live workers")
	}
	if ws := coord.Workers(); ws[0].Failures == 0 {
		t.Error("failure not recorded for the wedged worker")
	}

	// Recovery: the next heartbeat revives it without re-registration.
	failing.Store(false)
	beat()
	if !alive() {
		t.Fatal("recovered worker not revived by the heartbeat")
	}
	if err := coord.Ready(); err != nil {
		t.Fatalf("not ready after recovery: %v", err)
	}
}
