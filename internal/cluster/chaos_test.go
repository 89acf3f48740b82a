package cluster

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster/chaos"
	"repro/internal/service"
)

// These tests drive the lease/reassignment machinery with the chaos
// package's scripted faults and hold it to the headline property: no
// matter how workers crash, stall or lose their network, the merged
// result stays bit-identical to the single-process estimator.

// TestLeaseReassignmentBitIdentityMatrix is the property test of the
// leased scheduler: a worker whose streams are killed after a couple of
// blocks — under every power mode and every variance-reduction mode —
// never changes the merged result. Reassignment replays the merged
// prefix via SkipBlocks, so the only acceptable outcome is bit
// identity.
func TestLeaseReassignmentBitIdentityMatrix(t *testing.T) {
	// Every job is cut at word rows: the general-delay jobs span two
	// and the zero-delay jobs three, so each runs as several ranges.
	cases := []struct {
		name     string
		mode     string
		variance string
		relErr   float64
		reps     int
	}{
		{"general-delay/plain", "", "", 0.02, 128},
		{"general-delay/antithetic", "", "antithetic", 0.02, 128},
		// The control variate cuts variance so hard that a 2% spec
		// converges on each range's very first block — the kill would land
		// after the coordinator already hung up. A tighter spec keeps
		// blocks flowing long enough for the crash to be observed.
		{"general-delay/control-variate", "", "control-variate", 0.004, 128},
		{"zero-delay/plain", "zero-delay", "", 0.02, 130},
		{"zero-delay/antithetic", "zero-delay", "antithetic", 0.02, 130},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			healthy := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
			defer healthy.Close()
			// Every stream on the flaky worker crashes after delivering one
			// block — one block always flows (the merge loop needs every
			// range's first block before it can converge), so the kill is
			// guaranteed to fire, and the delivered block forces the
			// reassigned stream through the SkipBlocks replay path. The
			// first kill marks the worker dead (the test heartbeat never
			// revives it), handing its ranges to the healthy worker.
			flaky := httptest.NewServer(chaos.KillAfterBlocks(NewWorker(WorkerConfig{}).Handler(), 1, 0))
			defer flaky.Close()

			reg := service.NewRegistry(0)
			// Flaky first, so it holds ranges when its streams die.
			coord := newTestCoordinator(t, flaky.URL, healthy.URL)

			req := service.JobRequest{
				Circuit: "s298",
				Seed:    23,
				Options: service.OptionsSpec{
					RelErr: tc.relErr, Confidence: 0.95,
					Replications: tc.reps, PowerMode: tc.mode, Variance: tc.variance,
				},
			}
			want := reference(t, reg, req)
			got, ranges := estimateRanges(t, coord, reg, req, nil)
			sameResult(t, got, want, tc.name)
			if ranges < 2 {
				t.Errorf("%d replication range ran, want the job split", ranges)
			}

			var killed bool
			for _, w := range coord.Workers() {
				if w.URL == flaky.URL && w.Failures > 0 {
					killed = true
				}
			}
			if !killed {
				t.Error("flaky worker was never killed mid-stream — test exercised nothing")
			}
		})
	}
}

// TestLeaseExpiryStealsStalledRange: a worker that stays alive
// (heartbeats fine) but stops producing blocks has its leases reclaimed
// by the per-block deadline and its ranges stolen by the other worker —
// without the stalled worker ever being marked dead, and without any
// trace in the merged result.
func TestLeaseExpiryStealsStalledRange(t *testing.T) {
	healthy := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer healthy.Close()
	// Every stream on the stalled worker wedges after its first block.
	stalled := httptest.NewServer(chaos.StallAfterBlocks(NewWorker(WorkerConfig{}).Handler(), 1))
	defer stalled.Close()

	reg := service.NewRegistry(0)
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:      []string{stalled.URL, healthy.URL},
		Heartbeat:    time.Hour,
		LeaseTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	req := service.JobRequest{
		Circuit: "s298",
		Seed:    31,
		Options: service.OptionsSpec{
			RelErr: 0.02, Confidence: 0.95,
			Replications: 130, PowerMode: "zero-delay",
		},
	}
	want := reference(t, reg, req)
	got, ranges := estimateRanges(t, coord, reg, req, nil)
	sameResult(t, got, want, "after lease expiry")
	if ranges < 2 {
		t.Errorf("%d replication range ran, want the job split", ranges)
	}

	var expiries, reassignments uint64
	for _, w := range coord.Workers() {
		if w.URL == stalled.URL {
			if !w.Alive {
				t.Error("stalled worker was marked dead; expiry should reclaim leases, not liveness")
			}
			expiries = w.LeaseExpiries
		}
		reassignments += w.Reassignments
	}
	if expiries == 0 {
		t.Error("no lease expiries recorded on the stalled worker")
	}
	if reassignments == 0 {
		t.Error("no reassignments recorded after lease reclaim")
	}
}

// TestTransportFaultReassignment: network faults injected on the
// coordinator's side of the wire — one worker's streams cut mid-body,
// the other's requests slowed — reassign work without changing the
// merged result.
func TestTransportFaultReassignment(t *testing.T) {
	wCut := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer wCut.Close()
	wSlow := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer wSlow.Close()

	ft := &chaos.Transport{}
	ft.Set(hostOf(t, wCut.URL), chaos.Rule{CutAfterBlocks: 2})
	ft.Set(hostOf(t, wSlow.URL), chaos.Rule{Delay: 10 * time.Millisecond})

	reg := service.NewRegistry(0)
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:   []string{wCut.URL, wSlow.URL},
		Heartbeat: time.Hour,
		Client:    &http.Client{Transport: ft},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	req := service.JobRequest{
		Circuit: "s298",
		Seed:    47,
		Options: service.OptionsSpec{
			RelErr: 0.02, Confidence: 0.95,
			Replications: 130, PowerMode: "zero-delay",
		},
	}
	want := reference(t, reg, req)
	got, ranges := estimateRanges(t, coord, reg, req, nil)
	sameResult(t, got, want, "after transport faults")
	if ranges < 2 {
		t.Errorf("%d replication range ran, want the job split", ranges)
	}

	var retries uint64
	var lastErr string
	for _, w := range coord.Workers() {
		if w.URL == wCut.URL {
			retries = w.Retries
			lastErr = w.LastError
		}
	}
	if retries == 0 {
		t.Error("no retries recorded on the cut worker")
	}
	if lastErr == "" {
		t.Error("no last error recorded on the cut worker")
	}
}

// panicOnRun is a RoundTripper that panics on every /v1/run request
// and passes everything else (health probes) through.
type panicOnRun struct{}

func (panicOnRun) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/run" {
		panic("injected run panic")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestRangePanicFailsJob: a panic on a coordinator range goroutine
// fails the job with an error that carries the panic value, frees the
// lease slot the range held, and leaves the process running.
func TestRangePanicFailsJob(t *testing.T) {
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()
	reg := service.NewRegistry(0)
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:   []string{srv.URL},
		Heartbeat: time.Hour,
		Client:    &http.Client{Transport: panicOnRun{}},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	req := service.JobRequest{
		Circuit: "s27", Seed: 3,
		Options: service.OptionsSpec{Replications: 130, PowerMode: "zero-delay"},
	}
	_, err = estimate(t, coord, reg, req)
	if err == nil {
		t.Fatal("Sample succeeded through a panicking transport")
	}
	if !strings.Contains(err.Error(), "injected run panic") {
		t.Fatalf("error does not carry the panic value: %v", err)
	}
	// The other ranges stop once the job fails, and Sample waits for
	// them: every lease slot is back by the time it returns.
	requireJoined(t, coord, "failed job")
}

func hostOf(t *testing.T, rawURL string) string {
	t.Helper()
	u, err := url.Parse(rawURL)
	if err != nil {
		t.Fatal(err)
	}
	return u.Host
}
