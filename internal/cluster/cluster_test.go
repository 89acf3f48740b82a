package cluster

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// newTestCoordinator builds a coordinator over the given worker URLs
// on a slow heartbeat so tests control liveness transitions themselves.
func newTestCoordinator(t *testing.T, urls ...string) *Coordinator {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{
		Workers:   urls,
		Heartbeat: time.Hour, // probes happen at AddWorker time; no flapping mid-test
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	return coord
}

// prepare does for a test what the job manager does for a job before
// it reaches a dispatcher: it resolves the circuit's testbench and
// provenance from one registry entry, and returns them with the job's
// prepare hook, which runs the pre-sampling phases as the manager's
// hook does for a fresh job.
func prepare(t *testing.T, reg *service.Registry, req service.JobRequest) (*core.Testbench, service.CircuitSource, func() (core.ResumePoint, error)) {
	t.Helper()
	tb, src, err := reg.Resolve(req.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := req.Source.Factory(len(tb.Circuit.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	return tb, src, func() (core.ResumePoint, error) {
		return core.PreparePlanCtx(context.Background(), tb, factory, req.Seed, req.Options.Options(), req.Interval)
	}
}

// estimate prepares req from reg and samples it on coord.
func estimate(t *testing.T, coord *Coordinator, reg *service.Registry, req service.JobRequest) (core.Result, error) {
	t.Helper()
	tb, src, hook := prepare(t, reg, req)
	return coord.Sample(context.Background(), tb, src, req, hook, nil)
}

func sameResult(t *testing.T, got, want core.Result, label string) {
	t.Helper()
	if got.Power != want.Power {
		t.Errorf("%s: power %v, want %v (bit-identical)", label, got.Power, want.Power)
	}
	if got.HalfWidth != want.HalfWidth {
		t.Errorf("%s: half-width %v, want %v", label, got.HalfWidth, want.HalfWidth)
	}
	if got.SampleSize != want.SampleSize {
		t.Errorf("%s: sample size %d, want %d", label, got.SampleSize, want.SampleSize)
	}
	if got.Interval != want.Interval {
		t.Errorf("%s: interval %d, want %d", label, got.Interval, want.Interval)
	}
	if got.HiddenCycles != want.HiddenCycles {
		t.Errorf("%s: hidden cycles %d, want %d", label, got.HiddenCycles, want.HiddenCycles)
	}
	if got.SampledCycles != want.SampledCycles {
		t.Errorf("%s: sampled cycles %d, want %d", label, got.SampledCycles, want.SampledCycles)
	}
	if got.Converged != want.Converged {
		t.Errorf("%s: converged %v, want %v", label, got.Converged, want.Converged)
	}
	if got.Engine != want.Engine || got.DelayModel != want.DelayModel {
		t.Errorf("%s: engine %s/%s, want %s/%s", label, got.Engine, got.DelayModel, want.Engine, want.DelayModel)
	}
	if got.Criterion != want.Criterion {
		t.Errorf("%s: criterion %q, want %q", label, got.Criterion, want.Criterion)
	}
	if got.Variance != want.Variance || got.CVBeta != want.CVBeta {
		t.Errorf("%s: variance %q/beta %v, want %q/%v", label, got.Variance, got.CVBeta, want.Variance, want.CVBeta)
	}
}

// estimateRanges prepares req from reg, samples it on coord under a job
// trace and returns the result with the number of replication ranges
// the job's shard event reports.
func estimateRanges(t *testing.T, coord *Coordinator, reg *service.Registry, req service.JobRequest, progress func(core.Progress)) (core.Result, int) {
	t.Helper()
	tb, src, hook := prepare(t, reg, req)
	tr := obs.NewTrace()
	res, err := coord.Sample(obs.ContextWithTrace(context.Background(), tr), tb, src, req, hook, progress)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range tr.Spans() {
		for i := 0; s.Name == "shard" && i+1 < len(s.Attrs); i += 2 {
			if s.Attrs[i] == "ranges" {
				n, err := strconv.Atoi(s.Attrs[i+1])
				if err != nil {
					t.Fatal(err)
				}
				return res, n
			}
		}
	}
	t.Fatal("the job's trace has no shard event with a range count")
	return res, 0
}

// reference runs the single-process estimator for a job request.
func reference(t *testing.T, reg *service.Registry, req service.JobRequest) core.Result {
	t.Helper()
	tb, _, err := reg.Resolve(req.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := req.Source.Factory(len(tb.Circuit.Inputs))
	if err != nil {
		t.Fatal(err)
	}
	opts := req.Options.Options()
	var res core.Result
	if req.Interval != nil {
		res, err = core.EstimateParallelWithInterval(tb, factory, req.Seed, opts, *req.Interval)
	} else {
		res, err = core.EstimateParallel(tb, factory, req.Seed, opts)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterBitIdenticalOneWorker: the headline determinism guarantee
// — a cluster run with one worker reproduces core.EstimateParallel bit
// for bit: mean, half-width, sample size and cycle counts.
func TestClusterBitIdenticalOneWorker(t *testing.T) {
	wk := NewWorker(WorkerConfig{})
	srv := httptest.NewServer(wk.Handler())
	defer srv.Close()

	reg := service.NewRegistry(0)
	coord := newTestCoordinator(t, srv.URL)

	req := service.JobRequest{
		Circuit: "s298",
		Seed:    42,
		Options: service.OptionsSpec{Replications: 16},
	}
	want := reference(t, reg, req)
	if wk.Circuits() != 0 {
		t.Fatalf("worker starts with %d circuits, want 0", wk.Circuits())
	}
	got, err := estimate(t, coord, reg, req)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, got, want, "one worker")
	if !got.Converged {
		t.Fatal("cluster run did not converge")
	}
	// The worker started without the netlist: the 404-then-install
	// propagation path must have run.
	if wk.Circuits() != 1 {
		t.Fatalf("worker holds %d circuits after the job, want 1 (propagated)", wk.Circuits())
	}
}

// TestClusterBitIdenticalTwoWorkersAndModes: two workers (so the
// replication space really is split across processes) under both power
// modes and the fixed-interval path, with progress delivery checked.
// The zero-delay job spans three word rows, the last one partial, so
// its word-row ranges merge across workers too.
func TestClusterBitIdenticalTwoWorkersAndModes(t *testing.T) {
	w1, w2 := NewWorker(WorkerConfig{}), NewWorker(WorkerConfig{})
	s1 := httptest.NewServer(w1.Handler())
	defer s1.Close()
	s2 := httptest.NewServer(w2.Handler())
	defer s2.Close()

	reg := service.NewRegistry(0)
	coord := newTestCoordinator(t, s1.URL, s2.URL)

	fixed := 3
	cases := []struct {
		name string
		req  service.JobRequest
	}{
		{"general-delay", service.JobRequest{
			Circuit: "s298", Seed: 42,
			Options: service.OptionsSpec{Replications: 16},
		}},
		{"zero-delay", service.JobRequest{
			Circuit: "s298", Seed: 1997,
			Options: service.OptionsSpec{Replications: 130, PowerMode: "zero-delay"},
		}},
		{"fixed-interval", service.JobRequest{
			Circuit: "s298", Seed: 7,
			Options:  service.OptionsSpec{Replications: 16},
			Interval: &fixed,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := reference(t, reg, tc.req)
			var snapshots atomic.Int64
			got, ranges := estimateRanges(t, coord, reg, tc.req, func(core.Progress) {
				snapshots.Add(1)
			})
			sameResult(t, got, want, tc.name)
			if snapshots.Load() == 0 {
				t.Error("no progress snapshots delivered")
			}
			if ranges < 2 {
				t.Errorf("%d replication range ran, want the job split", ranges)
			}
		})
	}
	if w1.Circuits() == 0 || w2.Circuits() == 0 {
		t.Errorf("circuit propagation incomplete: worker circuits %d and %d", w1.Circuits(), w2.Circuits())
	}
}

// flakyRun wraps a worker handler so its first successful /v1/run
// stream dies after a few block lines — simulating a worker crash
// mid-job. Health endpoints keep answering, like a process that is
// wedged rather than gone, and the circuit-miss 404 passes through
// untouched so the crash hits the actual sample stream.
type flakyRun struct {
	inner    http.Handler
	aborted  atomic.Bool
	maxLines int
}

type truncatingWriter struct {
	http.ResponseWriter
	parent   *flakyRun
	status   int
	lines    int
	maxLines int
}

func (tw *truncatingWriter) WriteHeader(code int) {
	tw.status = code
	tw.ResponseWriter.WriteHeader(code)
}

func (tw *truncatingWriter) Write(p []byte) (int, error) {
	if tw.status == 0 || tw.status == http.StatusOK {
		tw.lines += strings.Count(string(p), "\n")
		if tw.lines > tw.maxLines {
			tw.parent.aborted.Store(true)
			panic(http.ErrAbortHandler) // kills the connection mid-stream
		}
	}
	return tw.ResponseWriter.Write(p)
}

func (tw *truncatingWriter) Flush() {
	if f, ok := tw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (f *flakyRun) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/v1/run" && !f.aborted.Load() {
		f.inner.ServeHTTP(&truncatingWriter{ResponseWriter: w, parent: f, maxLines: f.maxLines}, r)
		return
	}
	f.inner.ServeHTTP(w, r)
}

// TestClusterWorkerDeathReassignment: a worker dying mid-job loses
// nothing — its range is reassigned, the replacement fast-forwards past
// the merged prefix, and the final result is still bit-identical to the
// single-process run.
func TestClusterWorkerDeathReassignment(t *testing.T) {
	healthy := NewWorker(WorkerConfig{})
	sHealthy := httptest.NewServer(healthy.Handler())
	defer sHealthy.Close()
	flaky := &flakyRun{inner: NewWorker(WorkerConfig{}).Handler(), maxLines: 4}
	sFlaky := httptest.NewServer(flaky)
	defer sFlaky.Close()

	reg := service.NewRegistry(0)
	// Flaky worker registered first so it owns range 0 of the partition.
	coord := newTestCoordinator(t, sFlaky.URL, sHealthy.URL)

	// A tight spec keeps the run long enough (many blocks) that the
	// crash happens mid-stream, not after convergence.
	req := service.JobRequest{
		Circuit: "s298",
		Seed:    11,
		Options: service.OptionsSpec{RelErr: 0.01, Confidence: 0.99, Replications: 16},
	}
	want := reference(t, reg, req)
	got, err := estimate(t, coord, reg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !flaky.aborted.Load() {
		t.Fatal("flaky worker never died mid-stream — test exercised nothing")
	}
	sameResult(t, got, want, "after reassignment")

	// The coordinator must have recorded the death.
	var sawFailure bool
	for _, w := range coord.Workers() {
		if w.URL == sFlaky.URL && w.Failures > 0 {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Error("flaky worker death not recorded in worker status")
	}
}

// TestCoordinatorReady: readiness tracks the live-worker set.
func TestCoordinatorReady(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorConfig{Heartbeat: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Ready(); err == nil {
		t.Fatal("ready with no workers")
	}
	wk := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer wk.Close()
	if err := coord.AddWorker(wk.URL); err != nil {
		t.Fatal(err)
	}
	if err := coord.Ready(); err != nil {
		t.Fatalf("not ready with a live worker: %v", err)
	}
	if err := coord.AddWorker("ftp://nope"); err == nil {
		t.Fatal("accepted a non-http worker URL")
	}
}

// TestClusterNoWorkersFailsJob: with no live workers, Sample fails
// cleanly instead of hanging.
func TestClusterNoWorkersFailsJob(t *testing.T) {
	reg := service.NewRegistry(0)
	coord := newTestCoordinator(t)
	fixed := 2
	req := service.JobRequest{Circuit: "s27", Seed: 1, Interval: &fixed,
		Options: service.OptionsSpec{Replications: 8}}
	_, err := estimate(t, coord, reg, req)
	if err == nil || !strings.Contains(err.Error(), "no live workers") {
		t.Fatalf("err = %v, want no-live-workers failure", err)
	}
}

// TestClusterCancellation: cancelling the job context aborts the
// distributed run promptly with ctx.Err, like the local estimator.
func TestClusterCancellation(t *testing.T) {
	wk := httptest.NewServer(NewWorker(WorkerConfig{}).Handler())
	defer wk.Close()
	reg := service.NewRegistry(0)
	coord := newTestCoordinator(t, wk.URL)
	ctx, cancel := context.WithCancel(context.Background())
	fixed := 4
	req := service.JobRequest{
		Circuit: "s298", Seed: 3, Interval: &fixed,
		// An unreachable accuracy spec: the run can only end by cancel.
		Options: service.OptionsSpec{RelErr: 0.0005, Confidence: 0.9999, Replications: 16},
	}
	tb, src, hook := prepare(t, reg, req)
	progressed := make(chan struct{})
	var once atomic.Bool
	done := make(chan error, 1)
	go func() {
		_, err := coord.Sample(ctx, tb, src, req, hook, func(core.Progress) {
			if once.CompareAndSwap(false, true) {
				close(progressed)
			}
		})
		done <- err
	}()
	select {
	case <-progressed:
	case <-time.After(30 * time.Second):
		t.Fatal("no progress within 30s")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancellation did not end the run within 10s")
	}
}
