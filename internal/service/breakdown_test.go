package service

import (
	"context"
	"math"
	"net/http"
	"testing"
	"time"
)

// TestCacheKeyedByBreakdown: a breakdown request must never be answered
// from a scalar-only run's cache slot (the cached result has no rows to
// serve), while a repeat of each spelling hits its own slot; and the
// breakdown data actually flows through the job API — inline summary on
// the result view, full ranking on the dump endpoint.
func TestCacheKeyedByBreakdown(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1})

	run := func(breakdown bool) JobView {
		req := fastRequest(7)
		req.Options.Breakdown = breakdown
		var v JobView
		if code := postJSON(t, ts.URL+"/v1/jobs", req, &v); code != http.StatusAccepted {
			t.Fatalf("submit status = %d", code)
		}
		var out JobView
		if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/wait?timeout=60s", &out); code != http.StatusOK {
			t.Fatalf("wait status = %d", code)
		}
		if out.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", v.ID, out.State, out.Error)
		}
		return out
	}

	scalar := run(false)
	if scalar.Result.Breakdown != nil {
		t.Fatalf("scalar-only run carries a breakdown: %+v", scalar.Result.Breakdown)
	}
	withBrk := run(true)
	if withBrk.Result.Cached {
		t.Fatalf("breakdown request was served from the scalar run's cache slot: %+v", withBrk.Result)
	}
	bv := withBrk.Result.Breakdown
	if bv == nil || bv.Nodes == 0 || len(bv.Top) == 0 {
		t.Fatalf("breakdown view missing or empty: %+v", bv)
	}
	if b1, b2 := math.Float64bits(scalar.Result.Power), math.Float64bits(withBrk.Result.Power); b1 != b2 {
		t.Fatalf("breakdown changed the estimate: %x vs %x", b1, b2)
	}
	if rel := math.Abs(bv.Dynamic-withBrk.Result.Power) / withBrk.Result.Power; rel > 1e-9 {
		t.Fatalf("dynamic total %g vs estimate %g: relative gap %g", bv.Dynamic, withBrk.Result.Power, rel)
	}

	// Full dump endpoint: every ranked row, consistent with the summary.
	var dump JobBreakdown
	if code := getJSON(t, ts.URL+"/v1/jobs/"+withBrk.ID+"/breakdown", &dump); code != http.StatusOK {
		t.Fatalf("breakdown dump status = %d", code)
	}
	if dump.Report == nil || len(dump.Report.Rows) != bv.Nodes || dump.Truncated {
		t.Fatalf("breakdown dump = %+v, want %d untruncated rows", dump, bv.Nodes)
	}
	// The scalar job has nothing to dump.
	if code := getJSON(t, ts.URL+"/v1/jobs/"+scalar.ID+"/breakdown", nil); code != http.StatusNotFound {
		t.Fatalf("scalar job breakdown dump status = %d, want 404", code)
	}

	// Repeats hit their own slots and keep their shapes.
	if again := run(false); again.Result.Cached != true || again.Result.Breakdown != nil {
		t.Fatalf("scalar repeat = %+v, want cached scalar result", again.Result)
	}
	if again := run(true); !again.Result.Cached || again.Result.Breakdown == nil {
		t.Fatalf("breakdown repeat = %+v, want cached breakdown result", again.Result)
	}
	if cs := svc.Jobs.CacheStats(); cs.Hits != 2 || cs.Misses != 2 || cs.Entries != 2 {
		t.Fatalf("result cache stats = %+v, want 2 hits / 2 misses / 2 entries", cs)
	}
}

// TestServerRestartResumesBreakdownJob: the journal round-trips the
// phase-1 seed toggles through the checkpoint, so a breakdown job
// interrupted mid-sampling resumes to a report identical to the
// uninterrupted run's.
func TestServerRestartResumesBreakdownJob(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0)
	req := JobRequest{
		Circuit: "s298",
		Seed:    61,
		Options: OptionsSpec{
			RelErr: 0.02, Confidence: 0.95,
			Replications: 16, PowerMode: "zero-delay",
			Breakdown: true,
		},
	}

	ref := NewManager(reg, nil, 1, 0, nil)
	refIDView, err := ref.Submit(req)
	refID := refIDView.ID
	if err != nil {
		t.Fatal(err)
	}
	refView, err := ref.Wait(context.Background(), refID)
	ref.Close()
	if err != nil || refView.State != StateDone {
		t.Fatalf("reference run: state %v err %v (%s)", refView.State, err, refView.Error)
	}
	want := refView.Result
	if want.Breakdown == nil {
		t.Fatal("reference run produced no breakdown")
	}

	store1, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := newStallDispatcher()
	m1 := NewManager(reg, d, 1, 0, store1)
	idView, err := m1.Submit(req)
	id := idView.ID
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.running:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started sampling")
	}
	m1.Close()

	store2, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The journaled checkpoint must carry the seed toggles for the
	// resumed report to fold.
	var restored *RestoredJob
	for i, r := range store2.Restored() {
		if r.ID == id {
			restored = &store2.Restored()[i]
		}
	}
	if restored == nil || restored.Checkpoint == nil {
		t.Fatalf("restart lost the checkpoint for %s", id)
	}
	if len(restored.Checkpoint.SeedToggles) == 0 {
		t.Fatal("journaled checkpoint carries no seed toggles")
	}

	m2 := NewManager(reg, nil, 1, 0, store2)
	defer m2.Close()
	got, err := m2.Wait(context.Background(), id)
	if err != nil || got.State != StateDone {
		t.Fatalf("resumed job: state %v err %v (%s)", got.State, err, got.Error)
	}

	// Scalar fields first (breakdown views compare separately: the full
	// report pointer is process-local).
	g, w := *got.Result, *want
	g.Breakdown, w.Breakdown = nil, nil
	sameResultView(t, &g, &w, "resumed breakdown job")

	gb, wb := got.Result.Breakdown, want.Breakdown
	if gb == nil {
		t.Fatal("resumed job lost its breakdown")
	}
	if gb.Observations != wb.Observations || gb.Dynamic != wb.Dynamic ||
		gb.Leakage != wb.Leakage || gb.Nodes != wb.Nodes {
		t.Fatalf("resumed breakdown header %+v, want %+v", gb, wb)
	}
	if len(gb.Top) != len(wb.Top) {
		t.Fatalf("resumed top rows %d, want %d", len(gb.Top), len(wb.Top))
	}
	for i := range gb.Top {
		if gb.Top[i] != wb.Top[i] {
			t.Fatalf("resumed top row %d = %+v, want %+v", i, gb.Top[i], wb.Top[i])
		}
	}
}
