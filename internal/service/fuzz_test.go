package service

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
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
		if err := DecodeJSON(bytes.NewReader(data), &req); err != nil {
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
		if err := DecodeJSON(bytes.NewReader(enc), &back); err != nil {
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
		if err := DecodeJSON(bytes.NewReader(data), &req); err != nil {
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

// FuzzReplayJournal feeds arbitrary bytes to the journal replay as a
// journal file: torn, over-long, duplicated and reordered records. The
// replay never panics and never fails on a line's content. Every job it
// restores has a submit record, and jobs come back in first-submit
// order; a terminal state comes only from a state record that follows
// its job's submit. After an open, one append and a reopen, every job
// the first open restored is still there, followed by the appended one.
func FuzzReplayJournal(f *testing.F) {
	line := func(rec storeRecord) string {
		b, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	long := line(storeRecord{Kind: "submit", ID: "job-000001", Req: &JobRequest{Circuit: "toy", Seed: 5}}) +
		line(storeRecord{Kind: "checkpoint", ID: "job-000001", Checkpoint: &Checkpoint{Interval: 3},
			Source: &CircuitSource{Name: "toy", Format: "bench", Text: toyA + strings.Repeat("# "+strings.Repeat("<", 1022)+"\n", 16)}}) +
		line(storeRecord{Kind: "submit", ID: "job-000002", Req: &JobRequest{Circuit: "s27", Seed: 7}}) +
		line(storeRecord{Kind: "state", ID: "job-000002", State: StateCancelled, Error: "cancelled before start"})
	submit := line(storeRecord{Kind: "submit", ID: "job-000001", Req: &JobRequest{Circuit: "s27", Seed: 1}})
	done := line(storeRecord{Kind: "state", ID: "job-000001", State: StateDone, Result: &ResultView{Power: 0.5}})
	for _, seed := range []string{
		tornJournal,
		removedFieldsJournal,
		long,
		long[:len(long)/2], // torn inside the long line
		submit + submit + done + done,
		done + `{"kind":"checkpoint","id":"job-000001","checkpoint":{"interval":2}}` + "\n" + submit +
			`{"kind":"state","id":"job-000001","state":"running"}` + "\n",
		"",
		"\n\n{}\nnull\n[]\n" + submit,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "jobs.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		restored, _, err := replayJournal(path)
		if err != nil {
			t.Fatalf("replay failed on the journal's content: %v", err)
		}

		// The records as the replay reads them: one a line, the zero
		// record where a line does not decode.
		var recs []storeRecord
		firstSubmit := map[string]int{}
		for i, l := range bytes.Split(data, []byte("\n")) {
			var rec storeRecord
			if json.Unmarshal(l, &rec) != nil {
				rec = storeRecord{}
			}
			recs = append(recs, rec)
			if _, seen := firstSubmit[rec.ID]; rec.Kind == "submit" && rec.Req != nil && !seen {
				firstSubmit[rec.ID] = i
			}
		}
		if len(restored) != len(firstSubmit) {
			t.Fatalf("restored %d jobs, the journal submits %d", len(restored), len(firstSubmit))
		}
		prev := -1
		for _, r := range restored {
			at, ok := firstSubmit[r.ID]
			if !ok {
				t.Fatalf("job %q restored without a submit record", r.ID)
			}
			if at <= prev {
				t.Fatalf("job %q restored out of first-submit order", r.ID)
			}
			prev = at
			if !r.State.Terminal() {
				if r.State != StateQueued {
					t.Fatalf("job %q restored in state %q", r.ID, r.State)
				}
				continue
			}
			if !slices.ContainsFunc(recs[at+1:], func(rec storeRecord) bool {
				return rec.Kind == "state" && rec.ID == r.ID && rec.State == r.State
			}) {
				t.Fatalf("job %q restored %s with no such state record after its submit", r.ID, r.State)
			}
		}

		const id = "job-appended"
		store, err := OpenJobStore(dir)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		want := store.Restored()
		err = store.append(storeRecord{Kind: "submit", ID: id, Req: &JobRequest{Circuit: "s27"}})
		if cerr := store.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if _, had := firstSubmit[id]; !had {
			want = append(want, RestoredJob{ID: id, Req: JobRequest{Circuit: "s27"}, State: StateQueued})
		}
		if store, err = OpenJobStore(dir); err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer store.Close()
		if got := store.Restored(); !reflect.DeepEqual(got, want) {
			t.Fatalf("reopen after one append restored\n%+v\nwant\n%+v", got, want)
		}
	})
}
