package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
// text between a job's phase 1 and its sampling.
type reuploadBeforeSampling struct {
	*Coordinator
	reg        *service.Registry
	name, text string
}

func (d reuploadBeforeSampling) Sample(ctx context.Context, tb *core.Testbench, src service.CircuitSource, req service.JobRequest, rp core.ResumePoint, progress func(core.Progress)) (core.Result, error) {
	if _, err := d.reg.Upload(d.name, "bench", d.text); err != nil {
		return core.Result{}, err
	}
	return d.Coordinator.Sample(ctx, tb, src, req, rp, progress)
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
	id, err := m.Submit(req)
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
