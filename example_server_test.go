package dipe_test

import (
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"

	"repro"
)

// ExampleNewServer runs the power-estimation service in-process and
// drives one job through the submit → wait lifecycle over HTTP — the
// same flow cmd/dipe-server exposes on a real port. Estimates are
// deterministic: identical requests (circuit, source, seed, options)
// always return bit-identical results.
func ExampleNewServer() {
	srv := dipe.NewServer(dipe.DefaultServerConfig())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Submit an estimation job for the genuine s27 benchmark.
	body := `{"circuit":"s27","seed":42,"options":{"replications":16}}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	// Block until the job finishes (clients may also poll /v1/jobs/{id}).
	resp, err = http.Get(ts.URL + "/v1/jobs/" + job.ID + "/wait?timeout=60s")
	if err != nil {
		log.Fatal(err)
	}
	var done struct {
		State  string `json:"state"`
		Result struct {
			Power     float64 `json:"power"`
			Converged bool    `json:"converged"`
		} `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&done); err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()

	fmt.Printf("state: %s\n", done.State)
	fmt.Printf("power: %s\n", dipe.FormatWatts(done.Result.Power))
	fmt.Printf("converged: %v\n", done.Result.Converged)
	// Output:
	// state: done
	// power: 45.718 uW
	// converged: true
}
