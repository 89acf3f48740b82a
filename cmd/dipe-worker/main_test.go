package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"
)

// startWorker runs the real binary entry point on a kernel-assigned
// port and returns its base URL plus a shutdown func.
func startWorker(t *testing.T, args ...string) (string, func() error) {
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
				return fmt.Errorf("worker did not shut down")
			}
		}
	case err := <-errc:
		t.Fatalf("worker exited before ready: %v", err)
		return "", nil
	case <-time.After(10 * time.Second):
		t.Fatal("worker never became ready")
		return "", nil
	}
}

func TestWorkerServesHealthAndRejectsUnknownCircuit(t *testing.T) {
	base, shutdown := startWorker(t)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status = %d", path, resp.StatusCode)
		}
	}
	// A run for a hash the worker never saw is a 404 — the trigger for
	// coordinator-side circuit propagation.
	body := `{"hash":"deadbeef","seed":1,"interval":1,"repLo":0,"repHi":8}`
	resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("run on unknown hash = %d, want 404", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestWorkerBadFlags(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out, nil, nil); err == nil {
		t.Fatal("bad flags accepted")
	}
	// A bad log level or format is refused before the worker listens;
	// the closed stop channel returns a worker that did listen at once.
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
