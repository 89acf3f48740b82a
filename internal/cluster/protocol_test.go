package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// TestRunRequestValidate: a worker rejects every run request it could
// not run with a 400 before any stream starts, including one whose
// option spec expands to invalid estimator options or exceeds the job
// size limits, one whose range the job's options do not allow, and one
// whose interval or skipped blocks would have it fast-forward past the
// job's block budget, or whose plan's mode is not the variance mode its
// options ask for. A request without an options block expands to the
// paper defaults and is accepted; the worker then answers 404 because
// it has never seen the hash.
func TestRunRequestValidate(t *testing.T) {
	const valid = `"hash":"deadbeef","seed":1,"interval":1,"repLo":0,"repHi":8`
	const budget = `"hash":"deadbeef","seed":1,"interval":1,"repLo":0,"repHi":64,"options":{"replications":64,"maxSamples":6400}`
	cases := []struct {
		name string
		body string
		ok   bool
	}{
		{"no options block", `{` + valid + `}`, true},
		{"options block", `{` + valid + `,"options":{"powerMode":"zero-delay","replications":8,"workers":1,"breakdown":true}}`, true},
		{"missing hash", `{"seed":1,"interval":1,"repLo":0,"repHi":8}`, false},
		{"bad range", `{"hash":"deadbeef","seed":1,"interval":1,"repLo":8,"repHi":8}`, false},
		{"bogus power mode", `{` + valid + `,"options":{"powerMode":"bogus"}}`, false},
		{"negative replications", `{` + valid + `,"options":{"replications":-1}}`, false},
		{"negative workers", `{` + valid + `,"options":{"workers":-1}}`, false},
		{"range past the replications", `{"hash":"deadbeef","seed":1,"interval":1,"repLo":0,"repHi":65,"options":{"replications":64}}`, false},
		{"replications above the limit", `{` + valid + `,"options":{"replications":4097}}`, false},
		{"sample budget above the limit", `{` + valid + `,"options":{"maxSamples":16777217}}`, false},
		{"interval at the limit", `{"hash":"deadbeef","seed":1,"interval":65536,"repLo":0,"repHi":8}`, true},
		{"interval above the limit", `{"hash":"deadbeef","seed":1,"interval":65537,"repLo":0,"repHi":8}`, false},
		// 64 replications, one round per block and 6400 samples: a
		// budget of 6400/64 + 2 = 102 blocks.
		{"skipBlocks at the budget", `{` + budget + `,"skipBlocks":102}`, true},
		{"skipBlocks above the budget", `{` + budget + `,"skipBlocks":103}`, false},
		{"plan matching the variance mode", `{` + valid + `,"options":{"replications":8,"variance":"control-variate"},"vr":{"mode":"control-variate","beta":0.5,"controlMean":0.25}}`, true},
		{"control-variate plan under plain zero-delay options", `{` + valid + `,"options":{"powerMode":"zero-delay","replications":8},"vr":{"mode":"control-variate","beta":0.5,"controlMean":0.25}}`, false},
		{"antithetic plan under plain options", `{` + valid + `,"options":{"replications":8},"vr":{"mode":"antithetic"}}`, false},
		{"plain plan under antithetic options", `{` + valid + `,"options":{"replications":8,"variance":"antithetic"}}`, false},
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

// TestRunRequestRefusesRemovedKeys pins the wire contract: a worker
// derives a stream's block cadence and budget from the job's options,
// and neither is a key of the request, so a /v1/run body that sends
// "rounds" or "maxBlocks" gets a 400 and starts no stream, even with
// values equal to the derived ones. The same body without them streams,
// at the cadence core.BlockRounds gives, from a worker that has the
// circuit.
func TestRunRequestRefusesRemovedKeys(t *testing.T) {
	wk := NewWorker(WorkerConfig{})
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()
	src := service.CircuitSource{Builtin: "s27"}
	hash := service.HashSource(src)
	post := func(path string, body []byte) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	install, err := json.Marshal(InstallRequest{Hash: hash, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	resp := post("/v1/circuits", install)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("install answered %d", resp.StatusCode)
	}

	// 8 replications and 400 samples: 4 rounds a block, 400/32 + 2 = 14
	// blocks.
	spec := service.OptionsSpec{Replications: 8, MaxSamples: 400}
	opts := spec.Options()
	rounds, budget := core.BlockRounds(opts), core.MaxBlocks(opts)
	base := `"hash":"` + hash + `","seed":1,"interval":1,"repLo":0,"repHi":8,"options":{"replications":8,"maxSamples":400}`
	for _, extra := range []string{
		fmt.Sprintf(`,"rounds":%d`, rounds),
		fmt.Sprintf(`,"maxBlocks":%d`, budget),
	} {
		resp := post("/v1/run", []byte(`{`+base+extra+`}`))
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body with %s: worker answered %d, want 400", extra[1:], resp.StatusCode)
		}
	}
	if n := wk.served.Load(); n != 0 {
		t.Fatalf("%d streams started on refused bodies", n)
	}

	resp = post("/v1/run", []byte(`{`+base+`}`))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("body without rounds or maxBlocks: worker answered %d, want 200", resp.StatusCode)
	}
	var hdr StreamHeader
	if err := json.NewDecoder(resp.Body).Decode(&hdr); err != nil {
		t.Fatal(err)
	}
	if hdr.Lanes != 8 || hdr.Rounds != rounds {
		t.Errorf("stream header %+v, want 8 lanes at %d rounds a block", hdr, rounds)
	}
}
