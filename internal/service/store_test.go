package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/vr"
)

// stallDispatcher is the local dispatcher with a crash stand-in: the
// first progress report closes running, then the merge loop parks until
// the job context is cancelled. That freezes a job deterministically
// AFTER its checkpoint is journaled (the plan freezes before sampling,
// and progress only fires during sampling) and BEFORE it can finish, so
// a restart test never races the estimator.
type stallDispatcher struct {
	inner   Dispatcher
	running chan struct{}
	once    sync.Once
}

func newStallDispatcher() *stallDispatcher {
	return &stallDispatcher{inner: localDispatcher{}, running: make(chan struct{})}
}

func (d *stallDispatcher) Name() string { return d.inner.Name() }

func (d *stallDispatcher) Ready() error { return d.inner.Ready() }

func (d *stallDispatcher) Sample(ctx context.Context, tb *core.Testbench, src CircuitSource, req JobRequest, prepare func() (core.ResumePoint, error), progress func(core.Progress)) (core.Result, error) {
	wrapped := func(p core.Progress) {
		if progress != nil {
			progress(p)
		}
		d.once.Do(func() { close(d.running) })
		<-ctx.Done()
	}
	return d.inner.Sample(ctx, tb, src, req, prepare, wrapped)
}

// sameResultView compares two result views bit for bit, ignoring the
// fields the determinism contract does not cover (wall-clock, cache
// provenance).
func sameResultView(t *testing.T, got, want *ResultView, label string) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: missing result (got %v, want %v)", label, got, want)
	}
	g, w := *got, *want
	g.ElapsedMS, w.ElapsedMS = 0, 0
	g.Cached, w.Cached = false, false
	g.Trace, w.Trace = nil, nil // lifecycle timings, not covered by determinism
	if g != w {
		t.Errorf("%s: result mismatch\n got %+v\nwant %+v", label, g, w)
	}
}

// TestServerRestartResumesInterruptedJob is the durability property
// test: a job interrupted mid-sampling by a drain (the SIGTERM/crash
// stand-in) is re-enqueued when a new manager opens the same state
// directory, keeps its job ID, resumes from the journaled checkpoint,
// and finishes with a Result bit-identical to an uninterrupted run.
func TestServerRestartResumesInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0)
	req := JobRequest{
		Circuit: "s298",
		Seed:    61,
		Options: OptionsSpec{
			RelErr: 0.02, Confidence: 0.95,
			Replications: 16, PowerMode: "zero-delay",
		},
	}

	// Uninterrupted reference run, no store.
	ref := NewManager(reg, nil, 1, 0, nil)
	refID, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	refView, err := ref.Wait(context.Background(), refID)
	ref.Close()
	if err != nil || refView.State != StateDone {
		t.Fatalf("reference run: state %v err %v (%s)", refView.State, err, refView.Error)
	}
	want := refView.Result

	// Interrupted run: the dispatcher parks the merge loop after the
	// checkpoint is on disk, then Close drains the manager. A drain
	// cancellation is deliberately not journaled as terminal, so the job
	// must replay as resumable.
	store1, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := newStallDispatcher()
	m1 := NewManager(reg, d, 1, 0, store1)
	id, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.running:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started sampling")
	}
	m1.Close()

	// Restart on the same state directory with the real dispatcher.
	store2, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(reg, nil, 1, 0, store2)
	defer m2.Close()
	if st := m2.StoreStats(); st == nil || st.Resumed < 1 {
		t.Fatalf("restart resumed nothing: %+v", st)
	}
	got, err := m2.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != id {
		t.Errorf("restart changed the job ID: %s -> %s", id, got.ID)
	}
	if got.State != StateDone {
		t.Fatalf("resumed job: state %v (%s)", got.State, got.Error)
	}
	sameResultView(t, got.Result, want, "resumed job")

	// The resumed result must prime the result cache: an identical
	// request after the restart is served without a fresh run.
	id2, err := m2.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := m2.Wait(context.Background(), id2)
	if err != nil || v2.State != StateDone {
		t.Fatalf("cached re-submit: state %v err %v (%s)", v2.State, err, v2.Error)
	}
	if v2.Result == nil || !v2.Result.Cached {
		t.Errorf("re-submit after restart was not served from the cache: %+v", v2.Result)
	}
	sameResultView(t, v2.Result, want, "cached after restart")
}

// TestRestartResumesOnJournaledCircuit: a job drained mid-sampling on
// an uploaded circuit resumes on the text its phase 1 ran on, which the
// checkpoint journals — after a restart whose registry never saw the
// upload (uploads live in memory only), and after one where the name
// was first re-uploaded with other text. Either way the job ends done,
// bit-identical to an uninterrupted run on the original text.
func TestRestartResumesOnJournaledCircuit(t *testing.T) {
	req := JobRequest{Circuit: "toy", Seed: 5, Options: OptionsSpec{Replications: 16}}
	upload := func(reg *Registry, text string) {
		t.Helper()
		if _, err := reg.Upload("toy", "bench", text); err != nil {
			t.Fatal(err)
		}
	}
	refReg := NewRegistry(0)
	upload(refReg, toyA)
	ref := NewManager(refReg, nil, 1, 0, nil)
	refID, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	refView, err := ref.Wait(context.Background(), refID)
	ref.Close()
	if err != nil || refView.State != StateDone {
		t.Fatalf("reference run: state %v err %v (%s)", refView.State, err, refView.Error)
	}

	for _, tc := range []struct {
		name     string
		reupload string // text "toy" names at the restart ("" = unknown)
	}{
		{"restart without the upload", ""},
		{"restart after a re-upload with other text", toyB},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := NewRegistry(0)
			upload(reg, toyA)
			store1, err := OpenJobStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			d := newStallDispatcher()
			m1 := NewManager(reg, d, 1, 0, store1)
			id, err := m1.Submit(req)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-d.running:
			case <-time.After(30 * time.Second):
				t.Fatal("job never started sampling")
			}
			m1.Close()

			reg2 := NewRegistry(0)
			if tc.reupload != "" {
				upload(reg2, tc.reupload)
			}
			store2, err := OpenJobStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			m2 := NewManager(reg2, nil, 1, 0, store2)
			got, err := m2.Wait(context.Background(), id)
			m2.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got.State != StateDone {
				t.Fatalf("resumed job %s (%s)", got.State, got.Error)
			}
			sameResultView(t, got.Result, refView.Result, "resumed job")
		})
	}
}

// TestRestartReplaysLongCheckpointLine: a checkpoint line is as long as
// the upload it journals after JSON escaping, which writes each '<' of a
// netlist comment as six bytes, so an upload of 6 MiB of comments
// (under the 8 MiB request limit) makes a line of about 36 MiB. The replay reads it whole and
// folds every record after it: a queued job's submit and a cancelled
// job's terminal state. The long line's job resumes on its journaled
// text and ends bit-identical to an uninterrupted run.
func TestRestartReplaysLongCheckpointLine(t *testing.T) {
	text := toyA + strings.Repeat("# "+strings.Repeat("<", 1022)+"\n", 6<<10)
	req := JobRequest{Circuit: "toy", Seed: 5, Options: OptionsSpec{Replications: 16}}
	later := JobRequest{Circuit: "s27", Seed: 7, Options: OptionsSpec{Replications: 16}}

	refReg := NewRegistry(0)
	if _, err := refReg.Upload("toy", "bench", text); err != nil {
		t.Fatal(err)
	}
	ref := NewManager(refReg, nil, 1, 0, nil)
	refID, err := ref.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	refView, err := ref.Wait(context.Background(), refID)
	ref.Close()
	if err != nil || refView.State != StateDone {
		t.Fatalf("reference run: state %v err %v (%s)", refView.State, err, refView.Error)
	}

	dir := t.TempDir()
	reg := NewRegistry(0)
	if _, err := reg.Upload("toy", "bench", text); err != nil {
		t.Fatal(err)
	}
	store1, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := newStallDispatcher()
	m1 := NewManager(reg, d, 1, 0, store1)
	id, err := m1.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.running: // the long checkpoint line is journaled
	case <-time.After(30 * time.Second):
		t.Fatal("job never started sampling")
	}
	queued, err := m1.Submit(later)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := m1.Submit(JobRequest{Circuit: "s27", Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := m1.Cancel(cancelled); v.State != StateCancelled {
		t.Fatalf("queued job cancelled into state %s", v.State)
	}
	m1.Close()

	store2, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	restored := store2.Restored()
	if len(restored) != 3 {
		store2.Close()
		t.Fatalf("restored %d jobs, want 3", len(restored))
	}
	if r := restored[0]; r.Checkpoint == nil || r.Source == nil || r.Source.Text != text {
		store2.Close()
		t.Fatalf("long checkpoint line restored without its checkpoint or text")
	}
	if r := restored[2]; r.ID != cancelled || r.State != StateCancelled {
		t.Errorf("cancelled job restored as %s in state %s", r.ID, r.State)
	}
	m2 := NewManager(NewRegistry(0), nil, 1, 0, store2)
	defer m2.Close()
	got, err := m2.Wait(context.Background(), id)
	if err != nil || got.State != StateDone {
		t.Fatalf("resumed job: state %v err %v (%s)", got.State, err, got.Error)
	}
	sameResultView(t, got.Result, refView.Result, "resumed job")
	if v, err := m2.Wait(context.Background(), queued); err != nil || v.State != StateDone {
		t.Errorf("job queued after the long line: state %v err %v (%s)", v.State, err, v.Error)
	}
}

// TestResumedJobTraceSplicesPreRestartSpans: a job resumed from the
// journal keeps its pre-restart lifecycle — the spans journaled with
// the checkpoint are spliced ahead of the "restore" marker, and the
// whole list stays monotonic in time through "stop".
func TestResumedJobTraceSplicesPreRestartSpans(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0)
	req := JobRequest{
		Circuit: "s298",
		Seed:    71,
		Options: OptionsSpec{
			RelErr: 0.02, Confidence: 0.95,
			Replications: 16, PowerMode: "zero-delay",
		},
	}

	store1, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := newStallDispatcher()
	m1 := NewManager(reg, d, 1, 0, store1)
	id, err := m1.Submit(req)
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
	m2 := NewManager(reg, nil, 1, 0, store2)
	defer m2.Close()
	if v, err := m2.Wait(context.Background(), id); err != nil || v.State != StateDone {
		t.Fatalf("resumed job: state %v err %v", v.State, err)
	}

	tr, ok := m2.Trace(id)
	if !ok {
		t.Fatalf("no trace for resumed job %s", id)
	}
	idx := map[string]int{}
	for i, sp := range tr.Spans {
		if _, seen := idx[sp.Name]; !seen {
			idx[sp.Name] = i
		}
		if i > 0 && sp.T < tr.Spans[i-1].T {
			t.Errorf("span %d (%s) at %.3fms precedes span %d (%s) at %.3fms",
				i, sp.Name, sp.T, i-1, tr.Spans[i-1].Name, tr.Spans[i-1].T)
		}
	}
	// The pre-restart lifecycle (submit, run, plan freeze) must precede
	// the restore marker; the post-restart run and stop must follow it.
	restore, ok := idx["restore"]
	if !ok {
		t.Fatalf("no restore span in %v", names(tr.Spans))
	}
	for _, pre := range []string{"submit", "plan-resolve"} {
		if i, ok := idx[pre]; !ok || i >= restore {
			t.Errorf("span %q at %d not before restore at %d (spans %v)", pre, i, restore, names(tr.Spans))
		}
	}
	// The resumed job's prepare hook returns the journaled checkpoint,
	// so no phase 1 runs after the restore marker.
	for _, sp := range tr.Spans[restore:] {
		if sp.Name == "select-interval" || sp.Name == "plan-resolve" {
			t.Errorf("span %q follows restore: the resumed job ran phase 1 again (spans %v)", sp.Name, names(tr.Spans))
		}
	}
	stop, ok := idx["stop"]
	if !ok || stop <= restore {
		t.Errorf("stop span at %d not after restore at %d (spans %v)", stop, restore, names(tr.Spans))
	}
	if tr.Spans[stop].Attrs[1] != string(StateDone) {
		t.Errorf("stop span state attr %v, want done", tr.Spans[stop].Attrs)
	}
}

func names(spans []obs.Span) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// tornJournal ends in a record a crash cut mid-write.
const tornJournal = `{"kind":"submit","id":"job-000001","req":{"circuit":"s298","seed":1}}` + "\n" +
	`{"kind":"state","id":"job-0000`

// TestJournalTruncatedTailTolerated: a crash can cut the final journal
// append mid-line; everything before the torn line must still replay.
func TestJournalTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), []byte(tornJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	restored := store.Restored()
	if len(restored) != 1 {
		t.Fatalf("restored %d jobs, want 1", len(restored))
	}
	if restored[0].ID != "job-000001" || restored[0].State != StateQueued {
		t.Errorf("restored %+v; want job-000001 queued (torn terminal record dropped)", restored[0])
	}
}

// TestJournalAppendAfterTornTail: the records a restarted server
// appends after a torn final line replay at the next restart, and so
// does a whole record that follows a torn line.
func TestJournalAppendAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "jobs.jsonl")
	if err := os.WriteFile(path, []byte(tornJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []storeRecord{
		{Kind: "submit", ID: "job-000002", Req: &JobRequest{Circuit: "s27", Seed: 2}},
		{Kind: "state", ID: "job-000001", State: StateCancelled, Error: "cancelled before start"},
	} {
		if err := store.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store, err = OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	restored := store.Restored()
	if len(restored) != 2 {
		t.Fatalf("restored %d jobs, want 2", len(restored))
	}
	if r := restored[0]; r.ID != "job-000001" || r.State != StateCancelled {
		t.Errorf("first job restored as %s in state %s, want job-000001 cancelled", r.ID, r.State)
	}
	if r := restored[1]; r.ID != "job-000002" || r.State != StateQueued || r.Req.Circuit != "s27" {
		t.Errorf("second job restored as %+v, want job-000002 queued on s27", r)
	}
}

// removedFieldsJournal was written when requests and results still
// carried a backend and the compiled-session tuning options.
const removedFieldsJournal = `{"kind":"submit","id":"job-000001","req":{"circuit":"s298","seed":1,"options":{"replications":64,"backend":"packed","sessionWorkers":2,"cacheBudget":4096}}}` + "\n" +
	`{"kind":"submit","id":"job-000002","req":{"circuit":"s27","seed":2,"options":{"backend":"compiled"}}}` + "\n" +
	`{"kind":"state","id":"job-000002","state":"done","result":{"power":0.5,"engine":"compiled-zero-delay","backend":"compiled","converged":true}}` + "\n"

// TestJournalWithRemovedFieldsRestores: a journal written when requests
// and results still carried a backend and the compiled-session tuning
// options replays. The journal decoder ignores fields it no longer
// knows, so such a job restores with everything else intact.
func TestJournalWithRemovedFieldsRestores(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), []byte(removedFieldsJournal), 0o644); err != nil {
		t.Fatal(err)
	}
	store, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	restored := store.Restored()
	if len(restored) != 2 {
		t.Fatalf("restored %d jobs, want 2", len(restored))
	}
	if r := restored[0]; r.State != StateQueued || r.Req.Circuit != "s298" || r.Req.Options.Replications != 64 {
		t.Errorf("queued job restored as %+v", r)
	}
	if r := restored[1]; r.State != StateDone || r.Result == nil || r.Result.Power != 0.5 || r.Result.Engine != "compiled-zero-delay" {
		t.Errorf("finished job restored as %+v", r)
	}
}

// TestCheckpointRoundTrip: the persisted checkpoint reproduces the core
// resume point exactly, including the float64 seed sequence (JSON's
// shortest round-trip rendering is lossless), and a checkpoint line in
// the journal format of earlier releases (cycle counters under
// hiddenCycles/sampledCycles, no circuit source) restores to the same
// resume point, to be resumed on the circuit its name resolves to.
func TestCheckpointRoundTrip(t *testing.T) {
	rp := core.ResumePoint{
		Interval: 7,
		Capped:   true,
		SeedSeq:  []float64{0.125, 1.0 / 3, 0x1p-52, 0.9999999999999999},
		Hidden:   1234,
		Sampled:  5678,
	}
	b, err := json.Marshal(Checkpoint(rp))
	if err != nil {
		t.Fatal(err)
	}
	var back Checkpoint
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if got := core.ResumePoint(back); !reflect.DeepEqual(got, rp) {
		t.Errorf("checkpoint round trip changed the resume point\n got %+v\nwant %+v", got, rp)
	}

	line := `{"kind":"checkpoint","id":"job-000003","checkpoint":{"interval":2,` +
		`"seedSeq":[0.0015625,0.000030517578125],"seedToggles":[0,17,4503599627370495],` +
		`"plan":{"mode":"control-variate","beta":0.8125,"controlMean":0.000244140625},` +
		`"hiddenCycles":9000,"sampledCycles":640},"spans":[{"name":"submit","tMs":0}]}`
	want := core.ResumePoint{
		Interval:    2,
		SeedSeq:     []float64{0.0015625, 3.0517578125e-05},
		SeedToggles: []uint64{0, 17, 1<<52 - 1},
		Plan:        vr.Plan{Mode: vr.ModeControlVariate, Beta: 0.8125, ControlMean: 0x1p-12},
		Hidden:      9000,
		Sampled:     640,
	}
	var rec storeRecord
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint == nil {
		t.Fatal("journal line decoded without its checkpoint")
	}
	if rec.Source != nil {
		t.Errorf("a checkpoint line without a source decoded with source %+v", *rec.Source)
	}
	if got := core.ResumePoint(*rec.Checkpoint); !reflect.DeepEqual(got, want) {
		t.Errorf("journaled checkpoint restored as\n got %+v\nwant %+v", got, want)
	}
}

// endingDispatcher wraps the local dispatcher so every job, once its
// prepare hook returns and before its sampling begins, counts the
// checkpoint records its journal already holds, then ends the way its
// seed says: seed 2 fails after the run, seed 3 parks in its first
// progress report until it is cancelled, any other seed finishes.
type endingDispatcher struct {
	inner   Dispatcher
	journal string // the job store's journal file
	parked  chan struct{}
	mu      sync.Mutex
	saves   map[int64]int
}

func (d *endingDispatcher) Name() string { return d.inner.Name() }
func (d *endingDispatcher) Ready() error { return d.inner.Ready() }
func (d *endingDispatcher) Sample(ctx context.Context, tb *core.Testbench, src CircuitSource, req JobRequest, prepare func() (core.ResumePoint, error), progress func(core.Progress)) (core.Result, error) {
	counted := func() (core.ResumePoint, error) {
		rp, err := prepare()
		if err != nil {
			return rp, err
		}
		restored, _, err := replayJournal(d.journal)
		if err != nil {
			return rp, err
		}
		for _, r := range restored {
			if r.Req.Seed == req.Seed && r.Checkpoint != nil {
				d.mu.Lock()
				d.saves[req.Seed]++
				d.mu.Unlock()
			}
		}
		return rp, nil
	}
	wrapped := progress
	if req.Seed == 3 {
		wrapped = func(p core.Progress) {
			progress(p)
			select {
			case <-d.parked:
			default:
				close(d.parked)
			}
			<-ctx.Done()
		}
	}
	res, err := d.inner.Sample(ctx, tb, src, req, counted, wrapped)
	if req.Seed == 2 && err == nil {
		return core.Result{}, errors.New("injected failure after the checkpoint")
	}
	return res, err
}

// TestFinishedJobsDropCheckpoint: a done, a failed and a cancelled job
// each journaled a checkpoint before sampling began; once finished, the
// job record holds neither the checkpoint nor the cancel func, live and
// after a restart from the journal, and the view, trace and breakdown
// still answer.
func TestFinishedJobsDropCheckpoint(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0)
	store, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := &endingDispatcher{inner: localDispatcher{}, journal: store.Stats().Path, parked: make(chan struct{}), saves: map[int64]int{}}
	m := NewManager(reg, d, 2, 0, store)
	want := map[string]JobState{}
	ids := map[int64]string{}
	for seed, state := range map[int64]JobState{1: StateDone, 2: StateFailed, 3: StateCancelled} {
		req := fastRequest(seed)
		req.Options.Breakdown = true
		id, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		want[id], ids[seed] = state, id
	}
	select {
	case <-d.parked:
	case <-time.After(30 * time.Second):
		t.Fatal("seed-3 job never reached sampling")
	}
	m.Cancel(ids[3])
	for id := range want {
		if _, err := m.Wait(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		if d.saves[seed] == 0 {
			t.Fatalf("seed %d job began sampling with no checkpoint journaled", seed)
		}
	}

	check := func(m *Manager, label string) {
		t.Helper()
		for id, state := range want {
			m.mu.Lock()
			j := m.jobs[id]
			ckpt, cancel := j.ckpt, j.cancel
			m.mu.Unlock()
			if ckpt != nil || cancel != nil {
				t.Errorf("%s %s (%s): checkpoint %v, cancel func set %v", label, id, state, ckpt != nil, cancel != nil)
			}
			if v, ok := m.Get(id); !ok || v.State != state {
				t.Errorf("%s %s: view %+v (ok %v), want state %s", label, id, v, ok, state)
			}
			if tr, ok := m.Trace(id); !ok || len(tr.Spans) == 0 {
				t.Errorf("%s %s: trace %+v (ok %v)", label, id, tr, ok)
			}
			b, ok := m.Breakdown(id)
			if !ok || (state == StateDone) != (b.Report != nil) {
				t.Errorf("%s %s: breakdown report present %v (ok %v)", label, id, b.Report != nil, ok)
			}
		}
	}
	check(m, "live")
	m.Close()

	// The journal still carries the checkpoints; restore leaves them on
	// the floor for terminal jobs.
	store2, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	journaled := 0
	for _, r := range store2.Restored() {
		if r.Checkpoint != nil {
			journaled++
		}
	}
	if journaled == 0 {
		t.Fatal("journal replayed no checkpoint records")
	}
	m2 := NewManager(reg, nil, 1, 0, store2)
	defer m2.Close()
	check(m2, "restored")
}

// checkpointProbe wraps the local dispatcher and reads the journal when
// Sample is entered and again at the job's first progress report,
// noting each time whether the job's checkpoint is journaled.
type checkpointProbe struct {
	inner                 Dispatcher
	journal               string
	atEntry, atFirstBlock bool
	once                  sync.Once
}

func (d *checkpointProbe) Name() string { return d.inner.Name() }
func (d *checkpointProbe) Ready() error { return d.inner.Ready() }
func (d *checkpointProbe) Sample(ctx context.Context, tb *core.Testbench, src CircuitSource, req JobRequest, prepare func() (core.ResumePoint, error), progress func(core.Progress)) (core.Result, error) {
	journaled := func() bool {
		restored, _, err := replayJournal(d.journal)
		return err == nil && len(restored) == 1 && restored[0].Checkpoint != nil
	}
	d.atEntry = journaled()
	return d.inner.Sample(ctx, tb, src, req, prepare, func(p core.Progress) {
		d.once.Do(func() { d.atFirstBlock = journaled() })
		progress(p)
	})
}

// TestFreshJobJournalsCheckpointInPrepare: a fresh local job runs its
// phase 1 inside the dispatcher, through the prepare hook, which
// journals the checkpoint before the first block merges. The journal
// holds no checkpoint for the job when Sample is entered, and holds it
// by the first progress report.
func TestFreshJobJournalsCheckpointInPrepare(t *testing.T) {
	store, err := OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d := &checkpointProbe{inner: localDispatcher{}, journal: store.Stats().Path}
	m := NewManager(NewRegistry(0), d, 1, 0, store)
	defer m.Close()
	id, err := m.Submit(fastRequest(4))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := m.Wait(context.Background(), id); err != nil || v.State != StateDone {
		t.Fatalf("job: state %v err %v (%s)", v.State, err, v.Error)
	}
	if d.atEntry {
		t.Error("the checkpoint was journaled before Sample was entered: phase 1 ran outside the dispatcher")
	}
	if !d.atFirstBlock {
		t.Error("no checkpoint journaled by the first progress report")
	}
}

// TestJournalWriteFailureShows: writes that cannot reach the journal
// show. The journal's file is closed underneath an open store; a job
// still runs to done, but none of its records count as written, each
// failed append is counted in StoreStats with the last error, and the
// manager logs each with its job and record kind, and the failed close
// of its drain.
func TestJournalWriteFailureShows(t *testing.T) {
	store, err := OpenJobStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store.f.Close()
	var log bytes.Buffer
	logger, err := obs.NewLogger(&log, "info", "json")
	if err != nil {
		t.Fatal(err)
	}
	m := NewManagerObs(NewRegistry(0), nil, 1, 0, store, nil, logger)
	id, err := m.Submit(fastRequest(1))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := m.Wait(context.Background(), id); err != nil || v.State != StateDone {
		t.Fatalf("job: state %v err %v (%s)", v.State, err, v.Error)
	}
	m.Close() // the pool retires, so every append has happened
	st := m.StoreStats()

	kinds := map[string]int{}
	failed, closed := 0, false
	for _, line := range strings.Split(strings.TrimSpace(log.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		closed = closed || rec["msg"] == "journal close failed"
		if rec["msg"] != "journal append failed" {
			continue
		}
		failed++
		if rec["job"] != id {
			t.Errorf("failed append logged for job %v, want %s", rec["job"], id)
		}
		kind, _ := rec["kind"].(string)
		kinds[kind]++
	}
	for _, kind := range []string{"submit", "checkpoint", "state"} {
		if kinds[kind] != 1 {
			t.Errorf("%d failed %s appends logged, want 1 (logged kinds %v)", kinds[kind], kind, kinds)
		}
	}
	if st.Records != 0 || st.Failures < 3 || st.Failures != uint64(failed) {
		t.Errorf("store stats: %d records, %d failures, want 0 records and the %d logged failures (at least 3)", st.Records, st.Failures, failed)
	}
	if !strings.Contains(st.LastError, "state record") {
		t.Errorf("last error %q, want the terminal state record's", st.LastError)
	}
	if !closed {
		t.Error("the manager's drain closed the journal without logging its failure")
	}
}
