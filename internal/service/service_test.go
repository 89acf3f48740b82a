package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// newTestService builds a service with a small deterministic
// configuration and registers cleanup.
func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return svc, ts
}

// fastRequest is a quickly converging job on the genuine s27 benchmark.
func fastRequest(seed int64) JobRequest {
	return JobRequest{
		Circuit: "s27",
		Seed:    seed,
		Options: OptionsSpec{Replications: 16},
	}
}

// postJSON posts v and decodes the response body into out.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestSubmitPollLifecycle(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})

	var submitted JobView
	if code := postJSON(t, ts.URL+"/v1/jobs", fastRequest(42), &submitted); code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	if submitted.ID == "" || submitted.State.Terminal() {
		t.Fatalf("submit view = %+v, want live job with ID", submitted)
	}

	// Block until terminal; the 30 s timeout only guards against a hang.
	var waited JobView
	if code := getJSON(t, ts.URL+"/v1/jobs/"+submitted.ID+"/wait?timeout=30s", &waited); code != http.StatusOK {
		t.Fatalf("wait status = %d", code)
	}
	if !waited.State.Terminal() {
		t.Fatalf("job stuck in state %s", waited.State)
	}
	if waited.State != StateDone || waited.Result == nil {
		t.Fatalf("final view = %+v, want done with result", waited)
	}
	if waited.Result.Power <= 0 || !waited.Result.Converged {
		t.Fatalf("result = %+v, want positive converged power", waited.Result)
	}

	// A plain GET returns the same terminal snapshot.
	var view JobView
	if code := getJSON(t, ts.URL+"/v1/jobs/"+submitted.ID, &view); code != http.StatusOK {
		t.Fatalf("poll status = %d", code)
	}
	if view.State != waited.State || view.Result == nil || view.Result.Power != waited.Result.Power {
		t.Fatalf("poll view %+v != wait view %+v", view, waited)
	}

	// Job listing includes it.
	var list struct {
		Jobs []JobView `json:"jobs"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || len(list.Jobs) != 1 {
		t.Fatalf("list = %+v (status %d), want 1 job", list, code)
	}
}

// TestDeterminismAndCacheHit is the acceptance test of the service
// layer: two identical requests return bit-identical estimates, and the
// second skips re-freezing (observable as a registry cache hit).
func TestDeterminismAndCacheHit(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1})

	run := func() JobView {
		var v JobView
		if code := postJSON(t, ts.URL+"/v1/jobs", fastRequest(7), &v); code != http.StatusAccepted {
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

	first := run()
	statsAfterFirst := svc.Registry.Stats()
	second := run()
	statsAfterSecond := svc.Registry.Stats()

	if b1, b2 := math.Float64bits(first.Result.Power), math.Float64bits(second.Result.Power); b1 != b2 {
		t.Fatalf("identical requests gave different powers: %x vs %x", b1, b2)
	}
	if first.Result.SampleSize != second.Result.SampleSize ||
		first.Result.HalfWidth != second.Result.HalfWidth ||
		first.Result.Interval != second.Result.Interval {
		t.Fatalf("identical requests diverged: %+v vs %+v", first.Result, second.Result)
	}
	if statsAfterFirst.Misses != 1 {
		t.Fatalf("first request: misses = %d, want 1", statsAfterFirst.Misses)
	}
	// The second identical request is answered by the result cache: no
	// new estimation, no new registry traffic, result marked Cached.
	if !second.Result.Cached {
		t.Fatalf("second identical request was re-run instead of served from the result cache: %+v", second.Result)
	}
	if first.Result.Cached {
		t.Fatalf("first request claims to be cached: %+v", first.Result)
	}
	if statsAfterSecond.Misses != statsAfterFirst.Misses {
		t.Fatalf("second request re-froze the circuit: first %+v, second %+v",
			statsAfterFirst, statsAfterSecond)
	}
	if cs := svc.Jobs.CacheStats(); cs.Hits != 1 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("result cache stats = %+v, want 1 hit / 1 miss / 1 entry", cs)
	}
}

// TestSubmitRejectsRemovedFields: the options that selected a
// simulation backend or tuned compiled execution are no longer part of
// the request. A submit that still sends one is a 400, like any other
// unknown field, rather than being accepted and silently ignored.
func TestSubmitRejectsRemovedFields(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	for _, field := range []string{`"backend":"packed"`, `"sessionWorkers":2`, `"cacheBudget":4096`} {
		body := `{"circuit":"s27","seed":1,"options":{"replications":16,` + field + `}}`
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit with %s: status %d, want 400", field, resp.StatusCode)
		}
	}
}

// TestSubmitSizeBounds: a request may not ask for more replications or
// a larger sample budget than the server accepts, since either could
// exhaust its memory before any recover could help, nor a fixed
// interval above MaxFixedInterval; every request the repository's own
// scripts and benchmark send stays within the bounds.
func TestSubmitSizeBounds(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	tooBig := []OptionsSpec{
		{Replications: maxReplications + 1},
		{Replications: 1 << 30},
		{MaxSamples: maxSampleBudget + 1},
		{SeqLen: 1 << 40, MaxSamples: 1 << 41},
	}
	for _, o := range tooBig {
		req := JobRequest{Circuit: "s27", Options: o}
		if err := req.Validate(); err == nil {
			// Stop before submitting: an accepted oversized job would
			// try to allocate what the bound exists to refuse.
			t.Fatalf("%+v: Validate accepted an oversized request", o)
		}
		if code := postJSON(t, ts.URL+"/v1/jobs", req, nil); code != http.StatusBadRequest {
			t.Errorf("%+v: submit status %d, want 400", o, code)
		}
	}
	tooLong := MaxFixedInterval + 1
	req := JobRequest{Circuit: "s27", Interval: &tooLong}
	if err := req.Validate(); err == nil {
		t.Fatalf("interval %d accepted", tooLong)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", req, nil); code != http.StatusBadRequest {
		t.Errorf("interval %d: submit status %d, want 400", tooLong, code)
	}
	maxInterval := MaxFixedInterval
	atLimit := JobRequest{Circuit: "s27", Interval: &maxInterval, Options: OptionsSpec{Replications: maxReplications, MaxSamples: maxSampleBudget}}
	if err := atLimit.Validate(); err != nil {
		t.Errorf("request at the limits rejected: %v", err)
	}

	// The request bodies of scripts/e2e_cluster.sh and the option shapes
	// of the bench/ workloads (64 replications, 2% and 25% error, fixed
	// intervals) must keep validating.
	interval := 8
	valid := []string{
		`{"circuit":"s27",  "seed":5, "options":{"replications":16}}`,
		`{"circuit":"s298", "seed":8, "options":{"replications":16,"variance":"control-variate"}}`,
		`{"circuit":"s1494","seed":11,"options":{"relErr":0.03,"replications":64}}`,
		`{"circuit":"s1494","seed":77,"interval":4,"options":{"relErr":0.0001,"confidence":0.9999,"replications":64,"maxSamples":262144}}`,
		`{"circuit":"s1494","seed":21,"interval":4,"options":{"relErr":0.0001,"confidence":0.9999,"replications":128,"maxSamples":262144}}`,
	}
	for _, body := range valid {
		var req JobRequest
		if err := DecodeJSON(strings.NewReader(body), &req); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		if err := req.Validate(); err != nil {
			t.Errorf("%s: %v", body, err)
		}
	}
	for _, o := range []OptionsSpec{
		{Replications: 64, PowerMode: "zero-delay"},
		{Replications: 64, Variance: "control-variate"},
		{Replications: 64, Variance: "antithetic"},
		{Replications: 64, Breakdown: true},
		{Replications: 64, RelErr: 0.02},
		{Replications: 64, RelErr: 0.25},
	} {
		req := JobRequest{Circuit: "s38417", Seed: 1 << 47, Options: o, Interval: &interval}
		if err := req.Validate(); err != nil {
			t.Errorf("%+v: %v", o, err)
		}
	}
}

func TestCancelQueuedJob(t *testing.T) {
	svc := New(Config{Workers: 1, QueueSize: 8})
	defer svc.Close()

	// A slow accuracy spec keeps the single worker busy long enough for
	// the next submissions to stay queued.
	slow := JobRequest{
		Circuit: "s298",
		Seed:    1,
		Options: OptionsSpec{RelErr: 0.004, Confidence: 0.999, Replications: 32},
	}
	blockerView, err := svc.Jobs.Submit(slow)
	blocker := blockerView.ID
	if err != nil {
		t.Fatal(err)
	}
	queuedView, err := svc.Jobs.Submit(slow)
	queued := queuedView.ID
	if err != nil {
		t.Fatal(err)
	}
	view, err := svc.Jobs.Cancel(queued)
	if err != nil || view.State != StateCancelled {
		t.Fatalf("cancel of queued job = %+v (err %v), want cancelled", view, err)
	}
	// Cancelling the blocker too keeps the test fast; it is either
	// running (cancel via context) or already terminal.
	svc.Jobs.Cancel(blocker)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := svc.Jobs.Wait(ctx, blocker); err != nil {
		t.Fatalf("blocker did not terminate after cancel: %v", err)
	}
}

// startSignal wraps a dispatcher and closes started when its first
// Sample begins, by which time the job is in StateRunning. A non-nil
// gate then holds that first call until the gate is closed.
type startSignal struct {
	Dispatcher
	once    sync.Once
	started chan struct{}
	gate    chan struct{}
}

func (d *startSignal) Sample(ctx context.Context, tb *core.Testbench, src CircuitSource, req JobRequest, prepare func() (core.ResumePoint, error), progress func(core.Progress)) (core.Result, error) {
	first := false
	d.once.Do(func() {
		first = true
		close(d.started)
	})
	if first && d.gate != nil {
		<-d.gate
	}
	return d.Dispatcher.Sample(ctx, tb, src, req, prepare, progress)
}

// panicInPrepare wraps a dispatcher so its first job's prepare hook
// panics once phase 1 has run, while the tail warms up beside it.
type panicInPrepare struct {
	Dispatcher
	once sync.Once
}

func (d *panicInPrepare) Sample(ctx context.Context, tb *core.Testbench, src CircuitSource, req JobRequest, prepare func() (core.ResumePoint, error), progress func(core.Progress)) (core.Result, error) {
	hook := prepare
	d.once.Do(func() {
		hook = func() (core.ResumePoint, error) {
			prepare()
			panic("prepare hook failed")
		}
	})
	return d.Dispatcher.Sample(ctx, tb, src, req, hook, progress)
}

// TestPanicInPrepareFailsOnlyThatJob: a panic in a job's prepare hook
// fails that job with an internal-panic error; the pool's one worker
// survives and runs the next job to done.
func TestPanicInPrepareFailsOnlyThatJob(t *testing.T) {
	m := NewManager(NewRegistry(0), &panicInPrepare{Dispatcher: NewLocalDispatcher()}, 1, 0, nil)
	defer m.Close()
	for seed, want := range []JobState{StateFailed, StateDone} {
		idView, err := m.Submit(fastRequest(int64(seed + 1)))
		id := idView.ID
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.Wait(context.Background(), id)
		if err != nil || v.State != want {
			t.Fatalf("job %d: state %v err %v (%s), want %s", seed+1, v.State, err, v.Error, want)
		}
		if want == StateFailed && !strings.Contains(v.Error, "internal panic: prepare hook failed") {
			t.Errorf("failed job's error %q, want the hook's panic", v.Error)
		}
	}
}

func TestCancelRunningJob(t *testing.T) {
	d := &startSignal{Dispatcher: NewLocalDispatcher(), started: make(chan struct{})}
	_, ts := newTestService(t, Config{Workers: 1, Dispatcher: d})

	slow := JobRequest{
		Circuit: "s298",
		Seed:    3,
		Options: OptionsSpec{RelErr: 0.004, Confidence: 0.999, Replications: 32},
	}
	var v JobView
	if code := postJSON(t, ts.URL+"/v1/jobs", slow, &v); code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	// Wait until it is actually running; the 30 s timer only guards
	// against a hang.
	select {
	case <-d.started:
	case <-time.After(30 * time.Second):
		t.Fatal("job never started running")
	}
	var cur JobView
	getJSON(t, ts.URL+"/v1/jobs/"+v.ID, &cur)
	if cur.State.Terminal() {
		t.Fatalf("slow job finished early: %+v", cur)
	}
	if cur.State != StateRunning {
		t.Fatalf("state after Sample began = %s, want running", cur.State)
	}

	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", resp.StatusCode)
	}

	var final JobView
	if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/wait?timeout=30s", &final); code != http.StatusOK {
		t.Fatalf("wait status = %d", code)
	}
	if final.State != StateCancelled {
		t.Fatalf("state after cancel = %s, want cancelled", final.State)
	}
}

func TestBatchFanOut(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 2})

	batch := BatchRequest{Jobs: []JobRequest{fastRequest(1), fastRequest(2), fastRequest(3)}}
	var resp BatchResponse
	if code := postJSON(t, ts.URL+"/v1/batch", batch, &resp); code != http.StatusAccepted {
		t.Fatalf("batch status = %d", code)
	}
	if len(resp.IDs) != 3 {
		t.Fatalf("batch ids = %v, want 3", resp.IDs)
	}
	powers := make([]float64, len(resp.IDs))
	for i, id := range resp.IDs {
		var v JobView
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id+"/wait?timeout=60s", &v); code != http.StatusOK {
			t.Fatalf("wait %s status = %d", id, code)
		}
		if v.State != StateDone {
			t.Fatalf("batch job %s finished %s (%s)", id, v.State, v.Error)
		}
		powers[i] = v.Result.Power
	}
	// Different seeds: genuinely different replication streams.
	if powers[0] == powers[1] && powers[1] == powers[2] {
		t.Fatalf("all batch powers identical (%v) despite distinct seeds", powers)
	}

	// A batch with an invalid member is rejected atomically.
	bad := BatchRequest{Jobs: []JobRequest{fastRequest(1), {Circuit: ""}}}
	var errResp map[string]string
	if code := postJSON(t, ts.URL+"/v1/batch", bad, &errResp); code != http.StatusBadRequest {
		t.Fatalf("invalid batch status = %d", code)
	}
}

func TestUploadAndEstimateUploaded(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})

	var up UploadResponse
	code := postJSON(t, ts.URL+"/v1/circuits", UploadRequest{Name: "toy", Text: toyBench}, &up)
	if code != http.StatusCreated {
		t.Fatalf("upload status = %d", code)
	}
	if up.Inputs != 1 || up.Latches != 1 {
		t.Fatalf("upload response = %+v", up)
	}

	var circuits struct {
		Circuits []string `json:"circuits"`
	}
	getJSON(t, ts.URL+"/v1/circuits", &circuits)
	if !strings.Contains(strings.Join(circuits.Circuits, ","), "toy") {
		t.Fatalf("circuit list %v missing upload", circuits.Circuits)
	}

	var v JobView
	req := JobRequest{Circuit: "toy", Seed: 5, Options: OptionsSpec{Replications: 8}}
	if code := postJSON(t, ts.URL+"/v1/jobs", req, &v); code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	var out JobView
	if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/wait?timeout=60s", &out); code != http.StatusOK {
		t.Fatalf("wait status = %d", code)
	}
	if out.State != StateDone || out.Result.Power <= 0 {
		t.Fatalf("uploaded-circuit job = %+v", out)
	}
}

// Two texts of one upload name: the same interface, one gate apart.
const (
	toyA = `
INPUT(A)
INPUT(B)
OUTPUT(Y)
Q1 = DFF(D1)
Q2 = DFF(D2)
D1 = XOR(A, Q2)
D2 = AND(B, Q1)
Y = NAND(Q1, Q2)
`
	toyB = `
INPUT(A)
INPUT(B)
OUTPUT(Y)
Q1 = DFF(D1)
Q2 = DFF(D2)
D1 = XOR(A, Q2)
D2 = OR(B, Q1)
Y = NAND(Q1, Q2)
`
)

// TestReuploadBeforeStartKeysCacheByRunCircuit: a job queued on one text
// of an upload, which is replaced before the job starts, runs on the
// replacement and caches its result under the replacement's provenance.
// Once the first text is uploaded again, the same request gives what a
// fresh run on that text gives, not the replacement's result.
func TestReuploadBeforeStartKeysCacheByRunCircuit(t *testing.T) {
	req := JobRequest{Circuit: "toy", Seed: 5, Options: OptionsSpec{Replications: 16}}
	upload := func(reg *Registry, text string) {
		t.Helper()
		if _, err := reg.Upload("toy", "bench", text); err != nil {
			t.Fatal(err)
		}
	}
	wait := func(m *Manager, id string) JobView {
		t.Helper()
		v, err := m.Wait(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone {
			t.Fatalf("job %s finished %s (%s)", id, v.State, v.Error)
		}
		return v
	}
	run := func(m *Manager) JobView {
		t.Helper()
		idView, err := m.Submit(req)
		id := idView.ID
		if err != nil {
			t.Fatal(err)
		}
		return wait(m, id)
	}

	// Fresh runs on each text.
	ref := New(Config{Workers: 1})
	defer ref.Close()
	upload(ref.Registry, toyA)
	wantA := run(ref.Jobs)
	upload(ref.Registry, toyB)
	wantB := run(ref.Jobs)
	if wantA.Result.Power == wantB.Result.Power {
		t.Fatal("the two texts estimate the same power; the test cannot tell them apart")
	}

	// The pool's only worker is held by a first job, so the request
	// queues on text A and starts after text B replaced it.
	d := &startSignal{Dispatcher: NewLocalDispatcher(), started: make(chan struct{}), gate: make(chan struct{})}
	svc := New(Config{Workers: 1, Dispatcher: d})
	defer svc.Close()
	upload(svc.Registry, toyA)
	if _, err := svc.Jobs.Submit(fastRequest(1)); err != nil {
		t.Fatal(err)
	}
	<-d.started
	queuedView, err := svc.Jobs.Submit(req)
	queued := queuedView.ID
	if err != nil {
		t.Fatal(err)
	}
	upload(svc.Registry, toyB)
	close(d.gate)
	sameResultView(t, wait(svc.Jobs, queued).Result, wantB.Result, "job queued on text A, started on text B")

	upload(svc.Registry, toyA)
	sameResultView(t, run(svc.Jobs).Result, wantA.Result, "resubmission on text A")
}

func TestHTTPErrors(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})

	if code := getJSON(t, ts.URL+"/v1/jobs/job-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job poll status = %d, want 404", code)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/job-999999", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job cancel status = %d, want 404", resp.StatusCode)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Circuit: "sNOPE"}, nil); code != http.StatusAccepted {
		// Unknown circuits are resolved lazily by the worker, so the job
		// is accepted and then fails.
		t.Errorf("unknown-circuit submit status = %d, want 202", code)
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", JobRequest{}, nil); code != http.StatusBadRequest {
		t.Errorf("empty submit status = %d, want 400", code)
	}
	// Out-of-range source parameters must be rejected at submit time;
	// the vectors constructors panic on them, and that must never reach
	// a pool worker.
	badSources := []SourceSpec{
		{P: 1.5},
		{P: -0.1},
		{Kind: "lag", Rho: 1.0},
		{Kind: "lag", Rho: -0.5},
	}
	for _, src := range badSources {
		req := JobRequest{Circuit: "s27", Source: src}
		if code := postJSON(t, ts.URL+"/v1/jobs", req, nil); code != http.StatusBadRequest {
			t.Errorf("bad source %+v: submit status = %d, want 400", src, code)
		}
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", map[string]any{"nope": 1}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown-field submit status = %d, want 400", code)
	}
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz status = %d", code)
	}
	var stats StatsResponse
	if code := getJSON(t, ts.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Errorf("stats status = %d", code)
	}
	if stats.Pool.Workers != 1 {
		t.Errorf("pool stats = %+v, want 1 worker", stats.Pool)
	}
}

// TestJobFailsOnUnknownCircuit covers the failed terminal state.
func TestJobFailsOnUnknownCircuit(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	var v JobView
	if code := postJSON(t, ts.URL+"/v1/jobs", JobRequest{Circuit: "sNOPE", Seed: 1}, &v); code != http.StatusAccepted {
		t.Fatalf("submit status = %d", code)
	}
	var out JobView
	if code := getJSON(t, ts.URL+"/v1/jobs/"+v.ID+"/wait?timeout=30s", &out); code != http.StatusOK {
		t.Fatalf("wait status = %d", code)
	}
	if out.State != StateFailed || out.Error == "" {
		t.Fatalf("view = %+v, want failed with error", out)
	}
}

func TestQueueFull(t *testing.T) {
	svc := New(Config{Workers: 1, QueueSize: 1})
	defer svc.Close()
	slow := JobRequest{
		Circuit: "s298",
		Seed:    1,
		Options: OptionsSpec{RelErr: 0.004, Confidence: 0.999, Replications: 32},
	}
	var ids []string
	var sawFull bool
	// One job can be running and one queued; the pool hands queue slots
	// to the worker asynchronously, so allow a couple of extra attempts
	// before demanding ErrQueueFull.
	for i := 0; i < 5; i++ {
		idView, err := svc.Jobs.Submit(slow)
		id := idView.ID
		if err != nil {
			if err != ErrQueueFull {
				t.Fatalf("submit %d: %v", i, err)
			}
			sawFull = true
			break
		}
		ids = append(ids, id)
	}
	if !sawFull {
		t.Fatal("queue never reported full")
	}
	for _, id := range ids {
		svc.Jobs.Cancel(id)
	}
}

// TestPowerModeJob: a zero-delay job runs on the default word-parallel
// (compiled) engine and the result records it; an unknown mode is
// rejected at submit time.
func TestPowerModeJob(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})

	req := fastRequest(5)
	req.Options.PowerMode = "zero-delay"
	var submitted JobView
	if code := postJSON(t, ts.URL+"/v1/jobs", req, &submitted); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	var done JobView
	if code := getJSON(t, ts.URL+"/v1/jobs/"+submitted.ID+"/wait?timeout=30s", &done); code != http.StatusOK {
		t.Fatalf("wait status %d", code)
	}
	if done.State != StateDone || done.Result == nil {
		t.Fatalf("job did not finish: %+v", done)
	}
	if done.Result.Engine != "compiled-zero-delay" || done.Result.DelayModel != "zero" {
		t.Fatalf("result records engine %q delay %q", done.Result.Engine, done.Result.DelayModel)
	}

	bad := fastRequest(6)
	bad.Options.PowerMode = "half-delay"
	var errBody struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/jobs", bad, &errBody); code != http.StatusBadRequest {
		t.Fatalf("bad mode submit status %d", code)
	}
	if !strings.Contains(errBody.Error, "power mode") {
		t.Fatalf("error %q does not mention the power mode", errBody.Error)
	}

	// The general-delay default still records the event-driven engine.
	var gen JobView
	if code := postJSON(t, ts.URL+"/v1/jobs", fastRequest(7), &gen); code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+gen.ID+"/wait?timeout=30s", &gen); code != http.StatusOK {
		t.Fatalf("wait status %d", code)
	}
	if gen.Result == nil || gen.Result.Engine != "event-driven" {
		t.Fatalf("default engine recorded as %+v", gen.Result)
	}
}

// TestNonFiniteViewsEncode: a job cancelled before its criterion can
// bound the estimate leaves a terminal progress snapshot whose
// half-width is +Inf in core terms; the JSON views must map non-finite
// values to -1 so every job view (and the whole /v1/jobs listing)
// still encodes.
func TestNonFiniteViewsEncode(t *testing.T) {
	if v := viewResult(core.Result{Power: 1, HalfWidth: math.Inf(1)}); v.HalfWidth != -1 || v.RelHalfWidth != -1 {
		t.Fatalf("non-finite result view not sanitized: %+v", v)
	}
	if v := viewProgress(core.Progress{HalfWidth: math.Inf(1)}); v.HalfWidth != -1 {
		t.Fatalf("non-finite progress view not sanitized: %+v", v)
	}
	v := viewResult(core.Result{HalfWidth: math.Inf(1)})
	if _, err := json.Marshal(JobView{ID: "j", State: StateDone, Result: v}); err != nil {
		t.Fatalf("job view with sanitized result does not encode: %v", err)
	}
	if v := viewProgress(core.Progress{HalfWidth: 0.5}); v.HalfWidth != 0.5 {
		t.Fatalf("finite half-width altered: %+v", v)
	}
}

// TestElapsedCoversWholeEstimate: a local job's elapsedMs times the
// whole estimate, interval selection included, like the cluster
// dispatcher's. Both it and the trace's select-interval span are
// monotonic intervals and the span is nested in the timed call, so the
// span can never be the longer one.
func TestElapsedCoversWholeEstimate(t *testing.T) {
	svc, _ := newTestService(t, Config{Workers: 1})
	req := JobRequest{
		Circuit: "s1494",
		Seed:    1,
		Options: OptionsSpec{Replications: 64, SeqLen: 4096, RelErr: 0.2},
	}
	idView, err := svc.Jobs.Submit(req)
	id := idView.ID
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err := svc.Jobs.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("job did not finish: %+v", v)
	}
	tr, _ := svc.Jobs.Trace(id)
	selMS := -1.0
	for _, sp := range tr.Spans {
		if sp.Name == "select-interval" && sp.EndMS != nil {
			selMS = *sp.EndMS - sp.T
		}
	}
	if selMS < 0 {
		t.Fatalf("trace has no closed select-interval span: %+v", tr.Spans)
	}
	if v.Result.ElapsedMS < selMS {
		t.Fatalf("elapsedMs %.3f is shorter than the select-interval span %.3f ms it contains", v.Result.ElapsedMS, selMS)
	}
}

// TestMergeRoundCarriesJobValues: a job's convergence values belong to
// the job. Its trace's last merge-round event carries the power and
// half-width the job's result reports, in the event's 'g', 6 rendering.
func TestMergeRoundCarriesJobValues(t *testing.T) {
	svc, _ := newTestService(t, Config{Workers: 1})
	idView, err := svc.Jobs.Submit(fastRequest(3))
	id := idView.ID
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	v, err := svc.Jobs.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != StateDone || v.Result == nil {
		t.Fatalf("job did not finish: %+v", v)
	}
	tr, _ := svc.Jobs.Trace(id)
	var last map[string]string
	for _, sp := range tr.Spans {
		if sp.Name == "merge-round" {
			last = make(map[string]string)
			for i := 0; i+1 < len(sp.Attrs); i += 2 {
				last[sp.Attrs[i]] = sp.Attrs[i+1]
			}
		}
	}
	if last == nil {
		t.Fatalf("trace has no merge-round event: %+v", tr.Spans)
	}
	for key, want := range map[string]float64{"power": v.Result.Power, "halfWidth": v.Result.HalfWidth} {
		if got, want := last[key], strconv.FormatFloat(want, 'g', 6, 64); got != want {
			t.Errorf("last merge-round %s = %q, result's %q", key, got, want)
		}
	}
}
