package cluster

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/service"
)

// FuzzRunRequest feeds arbitrary bytes through the worker's request
// decoder into RunRequest.Validate. An accepted request must expand to
// valid options, stay inside the job's replication space, ask for at
// most 4096 samples per shard buffer ((RepHi-RepLo) x Rounds, what a
// worker allocates before its first block), and survive an
// encode/decode round trip unchanged.
func FuzzRunRequest(f *testing.F) {
	hash := service.HashSource(service.CircuitSource{Builtin: "s27"})
	for _, seed := range []string{
		// A rounds value that once made the worker allocate 2^33 x 64
		// samples and die out of memory.
		`{"hash":"` + hash + `","seed":1,"interval":2,"repLo":0,"repHi":64,"rounds":8589934592,"maxBlocks":1,"options":{"workers":1}}`,
		`{"hash":"` + hash + `","seed":5,"interval":2,"repLo":0,"repHi":16,"rounds":2,"maxBlocks":40,"options":{"replications":16,"workers":1}}`,
		`{"hash":"` + hash + `","seed":4,"interval":1,"repLo":8,"repHi":16,"rounds":2,"skipBlocks":3,"options":{"replications":16,"variance":"antithetic"}}`,
		`{"hash":"` + hash + `","seed":8,"interval":3,"repLo":0,"repHi":8,"rounds":1,"options":{"replications":16,"variance":"control-variate"},"vr":{"mode":"control-variate","beta":0.5,"controlMean":0.25}}`,
		`{"hash":"` + hash + `","seed":9,"interval":1,"repLo":0,"repHi":32,"rounds":1,"budgetRounds":7,"options":{"powerMode":"zero-delay","breakdown":true,"replications":32}}`,
		`{"hash":"` + hash + `","seed":1,"interval":1,"repLo":0,"repHi":100000000,"rounds":1}`,
		`{"hash":"` + hash + `","repLo":0,"repHi":8,"rounds":1,"options":{"replications":4097}}`,
		`{"hash":"x","repLo":-1,"repHi":8,"rounds":1}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req RunRequest
		if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
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
		if n := (req.RepHi - req.RepLo) * req.Rounds; n > 4096 {
			t.Fatalf("accepted stream of %d lanes x %d rounds = %d samples per block", req.RepHi-req.RepLo, req.Rounds, n)
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding an accepted request: %v", err)
		}
		var back RunRequest
		if err := decodeJSON(bytes.NewReader(enc), &back); err != nil {
			t.Fatalf("decoding the re-encoded request %s: %v", enc, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("round trip changed the request: %+v -> %s -> %+v", req, enc, back)
		}
	})
}
