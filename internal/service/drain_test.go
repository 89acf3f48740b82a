package service

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
)

// TestReadyzLocal: with the local dispatcher the service is ready as
// soon as it is constructed, and /readyz mirrors Ready().
func TestReadyzLocal(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ready" {
		t.Fatalf("status %q, want ready", body["status"])
	}
}

// notReadyDispatcher wraps the local dispatcher with a failing
// readiness probe.
type notReadyDispatcher struct{ Dispatcher }

func (notReadyDispatcher) Ready() error { return errors.New("warming up") }

// TestReadyzNotReady: a dispatcher that is not ready turns /readyz into
// a 503 while /healthz stays green — the liveness/readiness split.
func TestReadyzNotReady(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1, Dispatcher: notReadyDispatcher{NewLocalDispatcher()}})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz = %d, want 503", resp.StatusCode)
	}
	live, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	live.Body.Close()
	if live.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200 while not ready", live.StatusCode)
	}
}

// TestClusterEndpointsLocalMode: the cluster worker endpoints answer
// 404 under the local dispatcher instead of pretending a worker set
// exists.
func TestClusterEndpointsLocalMode(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cluster workers in local mode = %d, want 404", resp.StatusCode)
	}
}

// slowDispatcher runs a fake estimation that only ends on cancellation,
// and records that it observed the cancel — the stand-in for an
// in-flight job during shutdown.
type slowDispatcher struct {
	started   chan struct{}
	cancelled chan struct{}
}

func (d *slowDispatcher) Name() string { return "slow" }
func (d *slowDispatcher) Ready() error { return nil }
func (d *slowDispatcher) Sample(ctx context.Context, tb *core.Testbench, src CircuitSource, req JobRequest, prepare func() (core.ResumePoint, error), progress func(core.Progress)) (core.Result, error) {
	close(d.started)
	<-ctx.Done()
	close(d.cancelled)
	return core.Result{}, ctx.Err()
}

// TestCloseDrainsRunningJobs: Close cancels the running job, waits for
// its goroutine to retire before returning, and rejects submissions
// afterwards — the graceful-drain contract dipe-server relies on before
// srv.Shutdown.
func TestCloseDrainsRunningJobs(t *testing.T) {
	d := &slowDispatcher{started: make(chan struct{}), cancelled: make(chan struct{})}
	svc := New(Config{Workers: 1, Dispatcher: d})

	id, err := svc.Jobs.Submit(JobRequest{Circuit: "s27", Seed: 1, Options: OptionsSpec{Replications: 8}})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}

	done := make(chan struct{})
	go func() {
		svc.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return within 10s")
	}
	// Close returned, so the estimation goroutine must already have
	// observed cancellation (no leak) and the job must be terminal.
	select {
	case <-d.cancelled:
	default:
		t.Fatal("Close returned while the estimation was still running")
	}
	view, ok := svc.Jobs.Get(id)
	if !ok || !view.State.Terminal() {
		t.Fatalf("job state after Close = %+v, want terminal", view)
	}

	if _, err := svc.Jobs.Submit(JobRequest{Circuit: "s27", Seed: 2, Options: OptionsSpec{Replications: 8}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
	svc.Close() // idempotent
}
