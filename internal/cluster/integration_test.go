package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
)

// TestServiceOverCluster drives the full production wiring over
// loopback HTTP: a dipe-server-shaped service whose dispatcher is a
// cluster coordinator, plus two workers. It checks the readiness
// lifecycle (not ready until a worker registers), runtime worker
// registration through the service API, batch submission across the
// cluster, and that cluster results match a local-dispatcher service
// bit for bit.
func TestServiceOverCluster(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	svc := service.New(service.Config{Workers: 2, Dispatcher: coord})
	defer svc.Close()
	api := httptest.NewServer(svc.Handler())
	defer api.Close()

	getJSON := func(path string, v any) int {
		t.Helper()
		resp, err := http.Get(api.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}
	postJSON := func(path string, body, v any) int {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(api.URL+path, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if v != nil {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("POST %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	// No workers yet: alive but not ready.
	if code := getJSON("/healthz", nil); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if code := getJSON("/readyz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before workers = %d, want 503", code)
	}

	// Two workers register themselves over the service API.
	for i := 0; i < 2; i++ {
		wk := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
		defer wk.Close()
		if code := postJSON("/v1/cluster/workers", service.RegisterWorkerRequest{URL: wk.URL}, nil); code != http.StatusCreated {
			t.Fatalf("worker registration = %d, want 201", code)
		}
	}
	if code := getJSON("/readyz", nil); code != http.StatusOK {
		t.Fatalf("readyz with workers = %d, want 200", code)
	}
	var workers map[string][]service.WorkerStatus
	if code := getJSON("/v1/cluster/workers", &workers); code != http.StatusOK {
		t.Fatalf("list workers = %d", code)
	}
	if len(workers["workers"]) != 2 {
		t.Fatalf("listed %d workers, want 2", len(workers["workers"]))
	}

	// A batch across the cluster dispatcher completes.
	jobs := []service.JobRequest{
		{Circuit: "s27", Seed: 5, Options: service.OptionsSpec{Replications: 8}},
		{Circuit: "s298", Seed: 9, Options: service.OptionsSpec{Replications: 16}},
	}
	var batch service.BatchResponse
	if code := postJSON("/v1/batch", service.BatchRequest{Jobs: jobs}, &batch); code != http.StatusAccepted {
		t.Fatalf("batch = %d, want 202", code)
	}
	results := make(map[string]*service.ResultView)
	for _, id := range batch.IDs {
		var view service.JobView
		if code := getJSON(fmt.Sprintf("/v1/jobs/%s/wait?timeout=60s", id), &view); code != http.StatusOK {
			t.Fatalf("wait %s = %d", id, code)
		}
		if view.State != service.StateDone || view.Result == nil {
			t.Fatalf("job %s: state %s error %q", id, view.State, view.Error)
		}
		results[view.Request.Circuit] = view.Result
	}

	// Stats name the cluster dispatcher.
	var stats service.StatsResponse
	if code := getJSON("/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats = %d", code)
	}
	if stats.Dispatcher != "cluster" {
		t.Fatalf("stats dispatcher %q, want cluster", stats.Dispatcher)
	}

	// The same jobs on a plain local service give bit-identical results.
	local := service.New(service.Config{Workers: 2})
	defer local.Close()
	lapi := httptest.NewServer(local.Handler())
	defer lapi.Close()
	for _, jr := range jobs {
		b, _ := json.Marshal(jr)
		resp, err := http.Post(lapi.URL+"/v1/jobs", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var view service.JobView
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		wresp, err := http.Get(lapi.URL + "/v1/jobs/" + view.ID + "/wait?timeout=60s")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(wresp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		wresp.Body.Close()
		if view.State != service.StateDone || view.Result == nil {
			t.Fatalf("local job %s: state %s error %q", view.ID, view.State, view.Error)
		}
		cl := results[jr.Circuit]
		lo := view.Result
		if cl.Power != lo.Power || cl.HalfWidth != lo.HalfWidth || cl.SampleSize != lo.SampleSize ||
			cl.HiddenCycles != lo.HiddenCycles || cl.SampledCycles != lo.SampledCycles {
			t.Errorf("%s: cluster result %+v differs from local %+v", jr.Circuit, cl, lo)
		}
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

// reuploadBeforeSampling is a coordinator that replaces an upload's
// text between a job's phase 1 and its sampling: once the job's prepare
// hook returns.
type reuploadBeforeSampling struct {
	*Coordinator
	reg        *service.Registry
	name, text string
}

func (d reuploadBeforeSampling) Sample(ctx context.Context, tb *core.Testbench, src service.CircuitSource, req service.JobRequest, prepare func() (core.ResumePoint, error), progress func(core.Progress)) (core.Result, error) {
	return d.Coordinator.Sample(ctx, tb, src, req, func() (core.ResumePoint, error) {
		rp, err := prepare()
		if err != nil {
			return rp, err
		}
		_, err = d.reg.Upload(d.name, "bench", d.text)
		return rp, err
	}, progress)
}

// TestReuploadAfterPhase1KeepsJobOnOneCircuit: a re-upload that lands
// between a cluster job's phase 1 and its sampling does not reach the
// job's workers. The job samples the circuit phase 1 ran on, so its
// result stays bit-identical to core.EstimateParallel on that
// testbench.
func TestReuploadAfterPhase1KeepsJobOnOneCircuit(t *testing.T) {
	wk := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer wk.Close()
	reg := service.NewRegistry(0)
	if _, err := reg.Upload("toy", "bench", toyA); err != nil {
		t.Fatal(err)
	}
	req := service.JobRequest{Circuit: "toy", Seed: 5, Options: service.OptionsSpec{Replications: 16}}
	want := reference(t, reg, req)

	d := reuploadBeforeSampling{Coordinator: newTestCoordinator(t, wk.URL), reg: reg, name: "toy", text: toyB}
	m := service.NewManager(reg, d, 1, 0, nil)
	defer m.Close()
	idView, err := m.Submit(req)
	id := idView.ID
	if err != nil {
		t.Fatal(err)
	}
	v, err := m.Wait(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.StateDone || v.Result == nil {
		t.Fatalf("job %s: state %s error %q", id, v.State, v.Error)
	}
	got := v.Result
	if got.Power != want.Power || got.HalfWidth != want.HalfWidth || got.SampleSize != want.SampleSize ||
		got.Interval != want.Interval || got.HiddenCycles != want.HiddenCycles || got.SampledCycles != want.SampledCycles {
		t.Errorf("cluster result %+v differs from core.EstimateParallel on the phase-1 circuit %+v", got, want)
	}
}

// newFastCoordinator builds a coordinator whose heartbeat revives a
// worker within 200 ms, so a fleet wrongly marked dead keeps retrying
// until maxAttempts fails the job instead of waiting on a probe.
func newFastCoordinator(t *testing.T, urls ...string) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{Workers: urls, Heartbeat: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// TestEscapedUploadInstallsOnWorkers: every upload the service accepts
// installs on its workers. This one carries a 2 MiB comment of '<',
// which fits the service's body bound as the client sends it, but
// which the coordinator's encoding/json writes as six bytes a
// character, so the install body is about six times the upload. The
// job, two word rows and so two ranges, still runs to done on two
// workers, bit-identical to core.EstimateParallel, and both workers
// hold the circuit.
func TestEscapedUploadInstallsOnWorkers(t *testing.T) {
	w1, w2 := NewWorker(WorkerConfig{}), NewWorker(WorkerConfig{})
	s1 := httptest.NewServer(w1.Handler())
	defer s1.Close()
	s2 := httptest.NewServer(w2.Handler())
	defer s2.Close()
	reg := service.NewRegistry(0)
	text := toyA + strings.Repeat("# "+strings.Repeat("<", 1022)+"\n", 2<<10)
	body, err := json.Marshal(service.UploadRequest{Name: "toy", Format: "bench", Text: text})
	if err != nil {
		t.Fatal(err)
	}
	if len(text) >= service.MaxBodyBytes || len(body) <= service.MaxBodyBytes {
		t.Fatalf("text of %d bytes, %d encoded: want it inside the service's body bound of %d and its encoding past it",
			len(text), len(body), service.MaxBodyBytes)
	}
	if _, err := reg.Upload("toy", "bench", text); err != nil {
		t.Fatal(err)
	}
	req := service.JobRequest{Circuit: "toy", Seed: 5, Options: service.OptionsSpec{Replications: 128}}
	want := reference(t, reg, req)

	m := service.NewManager(reg, newFastCoordinator(t, s1.URL, s2.URL), 1, 0, nil)
	defer m.Close()
	idView, err := m.Submit(req)
	id := idView.ID
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute) // a hang guard
	defer cancel()
	v, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.State != service.StateDone || v.Result == nil {
		t.Fatalf("job %s: state %s error %q", id, v.State, v.Error)
	}
	got := v.Result
	if got.Power != want.Power || got.HalfWidth != want.HalfWidth || got.SampleSize != want.SampleSize ||
		got.Interval != want.Interval || got.HiddenCycles != want.HiddenCycles || got.SampledCycles != want.SampledCycles {
		t.Errorf("cluster result %+v differs from core.EstimateParallel %+v", got, want)
	}
	if w1.Circuits() != 1 || w2.Circuits() != 1 {
		t.Errorf("workers hold %d and %d circuits, want the upload on both", w1.Circuits(), w2.Circuits())
	}
}

// refuseInstall is a worker whose /v1/circuits refuses every install
// with a 400 of its own.
type refuseInstall struct{ http.Handler }

const installRefusal = "install refused: this worker takes no uploads"

func (h refuseInstall) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/circuits" {
		service.WriteError(w, http.StatusBadRequest, errors.New(installRefusal))
		return
	}
	h.Handler.ServeHTTP(w, r)
}

// TestRefusedInstallFailsJob: a worker that refuses a circuit install
// with a 4xx fails the job with its message, as a refused run does, and
// is charged no failure: the worker is healthy, and retrying the
// install elsewhere or later cannot change its answer.
func TestRefusedInstallFailsJob(t *testing.T) {
	srv := httptest.NewServer(refuseInstall{NewWorker(WorkerConfig{}).Handler()})
	defer srv.Close()
	reg := service.NewRegistry(0)
	coord := newFastCoordinator(t, srv.URL)
	fixed := 2
	req := service.JobRequest{Circuit: "s27", Seed: 1, Interval: &fixed,
		Options: service.OptionsSpec{Replications: 8}}
	tb, src, hook := prepare(t, reg, req)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute) // a hang guard
	defer cancel()
	_, err := coord.Sample(ctx, tb, src, req, hook, nil)
	if err == nil || !strings.Contains(err.Error(), installRefusal) {
		t.Fatalf("job error %v, want the worker's refusal %q", err, installRefusal)
	}
	for _, w := range coord.Workers() {
		if w.Failures != 0 || w.Retries != 0 || !w.Alive {
			t.Errorf("worker %s: %d failures, %d retries, alive %v; a refusal charges none", w.URL, w.Failures, w.Retries, w.Alive)
		}
	}
}

// heldInstall is a worker that counts the circuit installs it receives
// and holds each until the job's ranges have all sent their first
// /v1/run, so every range misses the circuit before it lands. Its
// guard releases a hold after heldInstallGuard, inside the
// coordinator's 15 s install timeout, so a job that runs as fewer
// ranges than the hold waits for still installs, and its test fails on
// the range count instead of hanging on a worker the failed install
// marked dead.
type heldInstall struct {
	http.Handler
	ranges   int64
	runs     atomic.Int64
	installs atomic.Int64
	allRan   chan struct{}
}

func (h *heldInstall) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/v1/run":
		if h.runs.Add(1) == h.ranges {
			close(h.allRan)
		}
	case "/v1/circuits":
		h.installs.Add(1)
		select {
		case <-h.allRan:
		case <-time.After(heldInstallGuard): // a hang guard
		}
	}
	h.Handler.ServeHTTP(w, r)
}

const heldInstallGuard = 5 * time.Second

// TestOneInstallPerJobAndWorker: a job's ranges share one circuit
// install per worker. One worker runs a 256-replication s298 job, four
// word rows, as 4 ranges and holds its install until each range has
// sent its first /v1/run, so all 4 miss the circuit; the worker still
// receives exactly one install, and the result is bit-identical to
// core.EstimateParallel.
func TestOneInstallPerJobAndWorker(t *testing.T) {
	h := &heldInstall{Handler: NewWorker(WorkerConfig{}).Handler(), ranges: 4, allRan: make(chan struct{})}
	srv := httptest.NewServer(h)
	defer srv.Close()
	reg := service.NewRegistry(0)
	req := service.JobRequest{Circuit: "s298", Seed: 3, Options: service.OptionsSpec{Replications: 256}}
	got, ranges := estimateRanges(t, newTestCoordinator(t, srv.URL), reg, req, nil)
	if ranges != 4 {
		t.Fatalf("the job ran as %d ranges, want 4", ranges)
	}
	sameResult(t, got, reference(t, reg, req), "ranges sharing one install")
	if n := h.installs.Load(); n != 1 {
		t.Errorf("the worker received %d installs for one job, want 1", n)
	}
}
