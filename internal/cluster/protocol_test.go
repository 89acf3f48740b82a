package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestRunRequestValidate: a worker rejects every run request it could
// not run with a 400 before any stream starts, including one whose
// option spec expands to invalid estimator options or exceeds the job
// size limits, one whose range or block cadence the job's options do
// not allow, and one whose interval or block counts would have it
// fast-forward past the job's block budget. A request without
// an options block expands to the paper defaults and is accepted; the
// worker then answers 404 because it has never seen the hash.
func TestRunRequestValidate(t *testing.T) {
	const valid = `"hash":"deadbeef","seed":1,"interval":1,"repLo":0,"repHi":8,"rounds":1`
	const budget = `"hash":"deadbeef","seed":1,"interval":1,"repLo":0,"repHi":64,"rounds":1,"options":{"replications":64,"maxSamples":6400}`
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"no options block", `{` + valid + `}`, true},
		{"options block", `{` + valid + `,"options":{"powerMode":"zero-delay","replications":8,"workers":1,"breakdown":true}}`, true},
		{"missing hash", `{"seed":1,"interval":1,"repLo":0,"repHi":8,"rounds":1}`, false},
		{"bad range", `{"hash":"deadbeef","seed":1,"interval":1,"repLo":8,"repHi":8,"rounds":1}`, false},
		{"bogus power mode", `{` + valid + `,"options":{"powerMode":"bogus"}}`, false},
		{"negative replications", `{` + valid + `,"options":{"replications":-1}}`, false},
		{"negative workers", `{` + valid + `,"options":{"workers":-1}}`, false},
		{"rounds 2^33", `{"hash":"deadbeef","seed":1,"interval":1,"repLo":0,"repHi":64,"rounds":8589934592,"maxBlocks":1}`, false},
		{"rounds above the cadence", `{"hash":"deadbeef","seed":1,"interval":1,"repLo":0,"repHi":64,"rounds":2,"options":{"replications":64}}`, false},
		{"range past the replications", `{"hash":"deadbeef","seed":1,"interval":1,"repLo":0,"repHi":65,"rounds":1,"options":{"replications":64}}`, false},
		{"replications above the limit", `{` + valid + `,"options":{"replications":4097}}`, false},
		{"sample budget above the limit", `{` + valid + `,"options":{"maxSamples":16777217}}`, false},
		{"interval at the limit", `{"hash":"deadbeef","seed":1,"interval":65536,"repLo":0,"repHi":8,"rounds":1}`, true},
		{"interval above the limit", `{"hash":"deadbeef","seed":1,"interval":65537,"repLo":0,"repHi":8,"rounds":1}`, false},
		// 64 replications, one round per block and 6400 samples: a
		// budget of 6400/64 + 2 = 102 blocks.
		{"skip and max blocks at the budget", `{` + budget + `,"skipBlocks":102,"maxBlocks":102}`, true},
		{"skipBlocks above the budget", `{` + budget + `,"skipBlocks":103}`, false},
		{"maxBlocks above the budget", `{` + budget + `,"maxBlocks":103}`, false},
		{"skipBlocks past maxBlocks", `{` + budget + `,"skipBlocks":5,"maxBlocks":4}`, false},
	}
	srv := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer srv.Close()
	for _, tc := range cases {
		var req RunRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := req.Validate(); (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusBadRequest
		if tc.ok {
			want = http.StatusNotFound
		}
		if resp.StatusCode != want {
			t.Errorf("%s: worker answered %d, want %d", tc.name, resp.StatusCode, want)
		}
	}
}
