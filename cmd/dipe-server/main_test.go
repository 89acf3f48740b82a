package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

// startServer runs the real binary entry point on a kernel-assigned
// port and returns its base URL plus a shutdown func.
func startServer(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	var out bytes.Buffer
	ready := make(chan string, 1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		errc <- run(append([]string{"-addr", "127.0.0.1:0"}, args...), &out, ready, stop)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, func() error {
			close(stop)
			select {
			case err := <-errc:
				return err
			case <-time.After(10 * time.Second):
				return fmt.Errorf("server did not shut down")
			}
		}
	case err := <-errc:
		t.Fatalf("server exited before ready: %v", err)
		return "", nil
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
		return "", nil
	}
}

func TestServeEstimateRoundTrip(t *testing.T) {
	base, shutdown := startServer(t, "-workers", "2", "-cache", "4")

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}

	body := `{"circuit":"s27","seed":11,"options":{"replications":16}}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || submitted.ID == "" {
		t.Fatalf("submit status = %d, id = %q", resp.StatusCode, submitted.ID)
	}

	resp, err = http.Get(base + "/v1/jobs/" + submitted.ID + "/wait?timeout=60s")
	if err != nil {
		t.Fatal(err)
	}
	var final struct {
		State  string `json:"state"`
		Result *struct {
			Power float64 `json:"power"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final.State != "done" || final.Result == nil || final.Result.Power <= 0 {
		t.Fatalf("final job = %+v", final)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bogus"}, &out, nil, nil); err == nil {
		t.Fatal("bad flag accepted")
	}
	if err := run([]string{"-addr", "256.256.256.256:99999"}, &out, nil, nil); err == nil {
		t.Fatal("unlistenable address accepted")
	}
	// A bad log level or format is refused before the server listens;
	// the closed stop channel returns a server that did listen at once.
	stop := make(chan struct{})
	close(stop)
	for _, tc := range []struct{ flag, value, want string }{
		{"-log-level", "bogus", "debug, info, warn or error"},
		{"-log-format", "xml", "logfmt or json"},
	} {
		err := run([]string{"-addr", "127.0.0.1:0", tc.flag, tc.value}, &out, nil, stop)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s %s: err %v, want a refusal naming %s", tc.flag, tc.value, err, tc.want)
		}
	}
}

// TestClusterModeEndToEnd boots the server with the cluster dispatcher
// and an in-process worker, walks the readiness transition, runs a job
// through the cluster, and drains with a job in flight.
func TestClusterModeEndToEnd(t *testing.T) {
	wk := httptest.NewServer(cluster.NewWorker(cluster.WorkerConfig{}).Handler())
	defer wk.Close()

	base, shutdown := startServer(t, "-cluster", "-heartbeat", "100ms")

	// Cluster mode with no registered workers: alive, not ready.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before workers = %d, want 503", resp.StatusCode)
	}

	reg := fmt.Sprintf(`{"url":%q}`, wk.URL)
	resp, err = http.Post(base+"/v1/cluster/workers", "application/json", strings.NewReader(reg))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("worker registration = %d, want 201", resp.StatusCode)
	}
	resp, err = http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after registration = %d, want 200", resp.StatusCode)
	}

	body := `{"circuit":"s27","seed":11,"options":{"replications":16}}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var submitted struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&submitted); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(base + "/v1/jobs/" + submitted.ID + "/wait?timeout=60s")
	if err != nil {
		t.Fatal(err)
	}
	var final struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Result *struct {
			Power float64 `json:"power"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final.State != "done" || final.Result == nil || final.Result.Power <= 0 {
		t.Fatalf("cluster job = %+v (error %q)", final, final.Error)
	}

	// Drain with a job in flight: submit a slow one and shut down
	// immediately; run() must still return promptly (the drain cancels
	// it) and without error.
	slow := `{"circuit":"s298","seed":3,"interval":4,"options":{"relErr":0.001,"confidence":0.9999,"replications":16}}`
	resp, err = http.Post(base+"/v1/jobs", "application/json", strings.NewReader(slow))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown with in-flight job: %v", err)
	}
}
