package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
)

// FuzzRunRequest feeds arbitrary bytes through the worker's request
// decoder into RunRequest.Validate. An accepted request must expand to
// valid options, stay inside the job's replication space, ask for at
// most 4096 samples per shard buffer ((RepHi-RepLo) x the block
// cadence the worker derives, core.BlockRounds, what it allocates
// before its first block), and survive an encode/decode round trip
// unchanged.
func FuzzRunRequest(f *testing.F) {
	hash := service.HashSource(service.CircuitSource{Builtin: "s27"})
	for _, seed := range []string{
		// A range of 2^33 replications, each of which a worker would
		// build a session lane for before its first block.
		`{"hash":"` + hash + `","seed":1,"interval":2,"repLo":0,"repHi":8589934592,"options":{"replications":8589934592}}`,
		`{"hash":"` + hash + `","seed":1,"interval":2,"repLo":0,"repHi":64,"options":{"workers":1}}`,
		`{"hash":"` + hash + `","seed":5,"interval":2,"repLo":0,"repHi":16,"options":{"replications":16,"workers":1}}`,
		`{"hash":"` + hash + `","seed":4,"interval":1,"repLo":8,"repHi":16,"skipBlocks":3,"options":{"replications":16,"variance":"antithetic"}}`,
		`{"hash":"` + hash + `","seed":8,"interval":3,"repLo":0,"repHi":8,"options":{"replications":16,"variance":"control-variate"},"vr":{"mode":"control-variate","beta":0.5,"controlMean":0.25}}`,
		`{"hash":"` + hash + `","seed":9,"interval":1,"repLo":0,"repHi":32,"budgetRounds":7,"options":{"powerMode":"zero-delay","breakdown":true,"replications":32}}`,
		// A control-variate plan under plain zero-delay options: shards
		// laid out from the options have no engine for the covariate.
		`{"hash":"` + hash + `","seed":3,"interval":1,"repLo":0,"repHi":64,"options":{"powerMode":"zero-delay","replications":64},"vr":{"mode":"control-variate","beta":0.5,"controlMean":0.25}}`,
		`{"hash":"` + hash + `","seed":1,"interval":1,"repLo":0,"repHi":100000000}`,
		`{"hash":"` + hash + `","repLo":0,"repHi":8,"options":{"replications":4097}}`,
		`{"hash":"x","repLo":-1,"repHi":8}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req RunRequest
		if err := service.DecodeJSON(bytes.NewReader(data), &req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		opts := req.Options.Options()
		if err := opts.Validate(); err != nil {
			t.Fatalf("accepted request expands to invalid options: %v", err)
		}
		if req.RepHi > opts.Replications {
			t.Fatalf("accepted range [%d, %d) outside %d replications", req.RepLo, req.RepHi, opts.Replications)
		}
		if req.Plan.Mode.Canonical() != opts.Variance.Mode.Canonical() {
			t.Fatalf("accepted plan mode %q under variance mode %q", req.Plan.Mode, opts.Variance.Mode)
		}
		rounds := core.BlockRounds(opts)
		if n := (req.RepHi - req.RepLo) * rounds; n > 4096 {
			t.Fatalf("accepted stream of %d lanes x %d rounds = %d samples per block", req.RepHi-req.RepLo, rounds, n)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding an accepted request: %v", err)
		}
		var back RunRequest
		if err := service.DecodeJSON(bytes.NewReader(enc), &back); err != nil {
			t.Fatalf("decoding the re-encoded request %s: %v", enc, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("round trip changed the request: %+v -> %s -> %+v", req, enc, back)
		}
	})
}
