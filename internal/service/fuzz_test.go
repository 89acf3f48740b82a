package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzJobRequest feeds arbitrary bytes through the submit decoder
// (unknown fields disallowed) and JobRequest.Validate. A request the
// server would accept must expand to valid estimator options, key the
// result cache, and survive an encode/decode round trip unchanged, with
// the same cache key.
func FuzzJobRequest(f *testing.F) {
	for _, seed := range []string{
		`{"circuit":"s27"}`,
		`{"circuit":"s27","seed":5,"options":{"replications":16,"workers":1}}`,
		`{"circuit":"s298","seed":4,"options":{"replications":16,"workers":1,"variance":"antithetic"}}`,
		`{"circuit":"s1494","seed":77,"interval":4,"options":{"relErr":0.0001,"confidence":0.9999,"replications":64,"workers":1,"maxSamples":262144}}`,
		`{"circuit":"s832","source":{"kind":"lag","p":0.3,"rho":0.5},"options":{"powerMode":"zero-delay","breakdown":true}}`,
		`{"circuit":"s27","options":{"backend":"packed"}}`,
		`{"circuit":"s27","options":{"replications":1073741824}}`,
		`{"circuit":"s27","options":{"seqLen":1099511627776,"maxSamples":2199023255552}}`,
		`{"circuit":"s27","interval":-1}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req JobRequest
		if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
			return
		}
		if err := req.Validate(); err != nil {
			return
		}
		if err := req.Options.Options().Validate(); err != nil {
			t.Fatalf("accepted request expands to invalid options: %v", err)
		}
		src := CircuitSource{Builtin: req.Circuit}
		key := resultKey(src, req)
		if key == "" {
			t.Fatal("accepted request has no cache key")
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding an accepted request: %v", err)
		}
		var back JobRequest
		if err := decodeJSON(bytes.NewReader(enc), &back); err != nil {
			t.Fatalf("decoding the re-encoded request %s: %v", enc, err)
		}
		if !reflect.DeepEqual(req, back) {
			t.Fatalf("round trip changed the request: %+v -> %s -> %+v", req, enc, back)
		}
		if k := resultKey(src, back); k != key {
			t.Fatalf("round trip changed the cache key: %s -> %s", key, k)
		}
	})
}

// FuzzUpload feeds arbitrary bytes through the upload decoder into
// Registry.Upload on a one-entry registry. No input may panic. An
// accepted upload must keep the provenance of the body it came from,
// and once a built-in circuit evicts it from the registry, rebuilding
// it from that provenance must give a circuit with the same statistics.
func FuzzUpload(f *testing.F) {
	for _, seed := range []string{
		`{"name":"t","text":"INPUT(A)\nOUTPUT(Y)\nQ = DFF(Y)\nY = XOR(A, Q)\n"}`,
		`{"name":"t","format":"bench","text":"INPUT(A)\nINPUT(B)\nOUTPUT(Z)\nQ = DFF(Z)\nN = NAND(A, Q)\nZ = NOR(N, B)\n"}`,
		`{"name":"t","format":"blif","text":".model t\n.inputs a\n.outputs q\n.latch d q 0\n.names a q d\n10 1\n01 1\n.end\n"}`,
		`{"name":"s27","text":"INPUT(A)\nOUTPUT(A)\n"}`,
		`{"name":"","text":""}`,
		`{"name":"x","format":"verilog","text":"module x; endmodule"}`,
		`{"name":"x","text":"OUTPUT(Y)\nY = AND(Y, Y)\n"}`,
		`{"name":"x","text":"INPUT(A)\n","extra":1}`,
		`null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req UploadRequest
		if err := decodeJSON(bytes.NewReader(data), &req); err != nil {
			return
		}
		reg := NewRegistry(1)
		stats, err := reg.Upload(req.Name, req.Format, req.Text)
		if err != nil {
			return
		}
		src, err := reg.Source(req.Name)
		if err != nil {
			t.Fatalf("accepted upload %q has no provenance: %v", req.Name, err)
		}
		body := CircuitSource{Name: req.Name, Format: req.Format, Text: req.Text}
		if HashSource(src) != HashSource(body) {
			t.Fatalf("upload provenance %+v does not hash like its body %+v", src, body)
		}
		if _, _, err := reg.Resolve("s27"); err != nil {
			t.Fatal(err)
		}
		if ev := reg.Stats().Evictions; ev != 1 {
			t.Fatalf("s27 made %d evictions in a one-entry registry, want 1", ev)
		}
		tb, _, err := reg.Resolve(req.Name)
		if err != nil {
			t.Fatalf("rebuilding the evicted upload %q: %v", req.Name, err)
		}
		if got := tb.Circuit.ComputeStats(); got != stats {
			t.Fatalf("rebuilt upload has stats %+v, want %+v", got, stats)
		}
	})
}
