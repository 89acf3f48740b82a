package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/bench89"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// target sends one op through the workload's entry point. It stamps
// the op's Start and End around the call itself, so that work a traced
// run does afterwards (fetching the job trace) is not timed.
type target interface {
	do(ctx context.Context, o *op)
	// close stops every server and goroutine the target started and
	// returns once they have ended.
	close()
}

// start sets the workload's entry point up from scratch: it builds and
// freezes the circuits, compiles them, starts the servers the entry
// point needs, and runs one discarded warm-up job per circuit. reg,
// when non-nil, receives the service's and the coordinator's
// instruments; tr, when non-nil, receives the spans of every op.
func start(ctx context.Context, w *workload, warmSeed int64, reg *obs.Registry, tr *tracer) (target, error) {
	var d target
	if w.entry == entryInProcess {
		tbs := make(map[string]*core.Testbench, len(w.circuits))
		for _, name := range w.circuits {
			tb, err := buildTestbench(name)
			if err != nil {
				return nil, err
			}
			compile.For(tb.Circuit)
			tbs[name] = tb
		}
		d = &inProcess{tbs: tbs, tr: tr}
	} else {
		s, err := startService(w.entry == entryCluster, reg, tr)
		if err != nil {
			return nil, err
		}
		d = s
	}
	for i, name := range w.circuits {
		o := &op{ID: -1 - i, Req: w.warmupRequest(name, warmSeed+int64(i))}
		d.do(ctx, o)
		if err := o.failure(); err != "" {
			d.close()
			return nil, fmt.Errorf("warm-up job on %s: %s", name, err)
		}
	}
	return d, nil
}

func buildTestbench(name string) (*core.Testbench, error) {
	c, err := bench89.Get(name)
	if err != nil {
		return nil, err
	}
	return core.DefaultTestbench(c), nil
}

// inProcess calls the parallel estimator in the caller's goroutine:
// the call dipe makes.
type inProcess struct {
	tbs map[string]*core.Testbench
	tr  *tracer
}

func (d *inProcess) do(ctx context.Context, o *op) {
	o.Start = time.Now()
	res, err := estimateInProcess(ctx, d.tbs[o.Req.Circuit], o.Req)
	o.End = time.Now()
	o.Res = fromCore(res)
	if err != nil {
		o.Err = err.Error()
	}
	d.tr.add("op", 0, o.ID, o.Start, o.End, 0)
}

func (d *inProcess) close() {}

// estimateInProcess runs a request the way the service's local
// dispatcher and dipe do.
func estimateInProcess(ctx context.Context, tb *core.Testbench, req service.JobRequest) (core.Result, error) {
	factory, err := req.Source.Factory(len(tb.Circuit.Inputs))
	if err != nil {
		return core.Result{}, err
	}
	opts := req.Options.Options()
	if req.Interval != nil {
		return core.EstimateParallelWithIntervalCtx(ctx, tb, factory, req.Seed, opts, *req.Interval)
	}
	return core.EstimateParallelCtx(ctx, tb, factory, req.Seed, opts)
}

// httpService submits each request to a dipe-server on a loopback
// listener and waits for the result, as a client would.
type httpService struct {
	base   string
	client *http.Client
	tr     *tracer
	stop   []func() // run in reverse order by close
}

// startService starts the service with the local dispatcher, or with a
// cluster coordinator over two loopback workers. The heartbeat is an
// hour, so no health probe runs inside a window; the coordinator probes
// each worker once when it registers.
func startService(clustered bool, reg *obs.Registry, tr *tracer) (*httpService, error) {
	transport := &http.Transport{MaxIdleConnsPerHost: 4}
	d := &httpService{client: &http.Client{Transport: transport}, tr: tr}
	d.stop = append(d.stop, transport.CloseIdleConnections)
	var dispatch service.Dispatcher
	if clustered {
		var urls []string
		for range 2 {
			srv := httptest.NewServer(cluster.NewWorker(cluster.WorkerConfig{}).Handler())
			d.stop = append(d.stop, srv.Close)
			urls = append(urls, srv.URL)
		}
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Workers: urls, Heartbeat: time.Hour, Obs: reg})
		if err != nil {
			d.close()
			return nil, err
		}
		d.stop = append(d.stop, coord.Close)
		dispatch = coord
	}
	svc := service.New(service.Config{Dispatcher: dispatch, Obs: reg})
	srv := httptest.NewServer(svc.Handler())
	d.stop = append(d.stop, srv.Close, svc.Close)
	d.base = srv.URL
	return d, nil
}

func (d *httpService) close() {
	for i := len(d.stop) - 1; i >= 0; i-- {
		d.stop[i]()
	}
}

func (d *httpService) do(ctx context.Context, o *op) {
	o.Start = time.Now()
	view, err := d.submitWait(ctx, o.Req)
	o.End = time.Now()
	o.JobID = view.ID
	if err != nil {
		o.Err = err.Error()
		return
	}
	o.Res = fromView(view.Result)
	if d.tr != nil {
		if err := d.importTrace(ctx, o); err != nil {
			o.Err = err.Error()
		}
	}
}

func (d *httpService) submitWait(ctx context.Context, req service.JobRequest) (service.JobView, error) {
	var sub service.JobView
	if err := d.call(ctx, http.MethodPost, "/v1/jobs", req, http.StatusAccepted, &sub); err != nil {
		return sub, err
	}
	var done service.JobView
	if err := d.call(ctx, http.MethodGet, "/v1/jobs/"+sub.ID+"/wait?timeout=10m", nil, http.StatusOK, &done); err != nil {
		return sub, err
	}
	if done.State != service.StateDone || done.Result == nil {
		return done, fmt.Errorf("job %s ended %s: %s", done.ID, done.State, done.Error)
	}
	return done, nil
}

func (d *httpService) call(ctx context.Context, method, path string, body any, want int, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, rd)
	if err != nil {
		return err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// stats reads GET /v1/stats.
func (d *httpService) stats(ctx context.Context) (service.StatsResponse, error) {
	var st service.StatsResponse
	err := d.call(ctx, http.MethodGet, "/v1/stats", nil, http.StatusOK, &st)
	return st, err
}

// importTrace reads the job's lifecycle trace (GET /v1/jobs/{id}/trace)
// and records it as spans under the op. Job trace times count from the
// server's submit; they are anchored at the client's submit, which
// precedes it by part of one loopback round trip. The op span's self
// time is then the HTTP and JSON cost of the submit and wait calls.
func (d *httpService) importTrace(ctx context.Context, o *op) error {
	var jt service.JobTrace
	if err := d.call(ctx, http.MethodGet, "/v1/jobs/"+o.JobID+"/trace", nil, http.StatusOK, &jt); err != nil {
		return err
	}
	root := d.tr.add("op", 0, o.ID, o.Start, o.End, 0)
	at := func(ms float64) time.Time { return o.Start.Add(time.Duration(ms * float64(time.Millisecond))) }
	var submit, run, stop, shard float64
	var hasRun, hasShard bool
	var merges []float64
	var begun []obs.Span
	for _, s := range jt.Spans {
		switch s.Name {
		case "submit":
			submit = s.T
		case "run":
			run, hasRun = s.T, true
		case "stop":
			stop = s.T
		case "shard":
			shard, hasShard = s.T, true
		case "merge-round":
			merges = append(merges, s.T)
		case "lease":
			o.Leases++
		case "steal":
			o.Steals++
		case "select-interval", "plan-resolve":
			if s.EndMS != nil {
				begun = append(begun, s)
			}
		}
	}
	o.Blocks = len(merges)
	if !hasRun {
		return nil // a result-cache hit never queues or runs
	}
	d.tr.add("service.queue", root, o.ID, at(submit), at(run), 0)
	runID := d.tr.add("service.run", root, o.ID, at(run), at(stop), 0)
	for _, s := range begun {
		name := "service.select"
		if s.Name == "plan-resolve" {
			name = "service.plan"
		}
		d.tr.add(name, runID, o.ID, at(s.T), at(*s.EndMS), 0)
	}
	if !hasShard || len(merges) == 0 {
		return nil
	}
	first, last := merges[0], merges[len(merges)-1]
	if o.Leases > 0 {
		d.tr.add("cluster.first_block", runID, o.ID, at(shard), at(first), 0)
		d.tr.add("cluster.stream", runID, o.ID, at(first), at(last), 0)
	} else {
		d.tr.add("service.tail", runID, o.ID, at(shard), at(last), 0)
	}
	return nil
}
