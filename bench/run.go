package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
)

const (
	// setupRuns is how often a run sets its workload up from scratch;
	// setup_s is the median, and the last setup serves the window.
	setupRuns = 5
	// decomposeOps is how many of the window's estimates a traced run
	// re-runs layer by layer.
	decomposeOps = 8
	// warmupSalt separates the warm-up jobs' seeds from the window's.
	warmupSalt = 0x5eed_0f_3a11
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	out     string // directory for the trace file
}

// host records what the numbers were measured on.
type host struct {
	NumCPU     int    `json:"numCPU"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

// opDigest pins one estimate's deterministic result, so two runs of the
// same seed on two commits can be compared bit for bit.
type opDigest struct {
	Op      int     `json:"op"`
	Circuit string  `json:"circuit"`
	Class   string  `json:"class"`
	Seed    int64   `json:"seed"`
	Result  string  `json:"result"`
	Cached  bool    `json:"cached,omitempty"`
	Latency float64 `json:"latencyS"`
}

// report is the record of one run, appended as one line to runs.jsonl.
type report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Host      host     `json:"host"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	// Metrics are the declared metrics the run prints.
	Metrics map[string]float64 `json:"metrics"`
	// Detail holds end-to-end numbers outside the gated set: means,
	// throughput, CPU, accuracy, per-class latencies.
	Detail map[string]float64 `json:"detail"`
	// Samples is the number of observations behind each latency
	// percentile or mean in Metrics and Detail.
	Samples      map[string]int `json:"samples"`
	SetupSeconds []float64      `json:"setupSeconds"`
	Digests      []opDigest     `json:"digests"`
}

func (r *report) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// runWorkload sets the workload up, runs its timed window, checks every
// result and computes the run's metrics; a traced run then measures the
// layers.
func runWorkload(ctx context.Context, w *workload, cfg runConfig, refs refTable) (*report, error) {
	if err := refs.require(w); err != nil {
		return nil, err
	}
	rep := &report{
		Workload: w.name, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Host:   host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH},
		Detail: map[string]float64{}, Samples: map[string]int{},
	}
	var (
		tr  *tracer
		reg *obs.Registry
		cm  *sim.CompiledMetrics
	)
	if cfg.traced {
		tr = newTracer()
		reg = obs.NewRegistry()
		cm = sim.RegisterCompiledMetrics(reg)
		defer sim.RegisterCompiledMetrics(nil)
	}
	warm := rand.New(rand.NewSource(cfg.seed ^ warmupSalt))
	var (
		d   target
		err error
	)
	for range setupRuns {
		if d != nil {
			d.close()
		}
		// Collecting the previous setup's garbage keeps it out of this
		// setup's time and out of the peak resident set.
		runtime.GC()
		t0 := time.Now()
		if d, err = start(ctx, w, newSeed(warm), reg, tr); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		rep.SetupSeconds = append(rep.SetupSeconds, time.Since(t0).Seconds())
		tr.add("setup", 0, -1, t0, time.Now(), 0)
	}
	closeTarget := sync.OnceFunc(d.close)
	defer closeTarget()
	svc, _ := d.(*httpService)

	in := layerInputs{entry: w.entry}
	if cfg.traced && svc != nil {
		if in.st0, err = svc.stats(ctx); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	c0 := readCompiled(cm)
	cpu0 := cpuSeconds()
	begin := time.Now()
	ops := closedLoop(ctx, d, newGenerator(w, cfg.seed, w.maxOps), w.callers, begin.Add(time.Duration(cfg.seconds*float64(time.Second))))
	window := 0.0
	for _, o := range ops {
		window = max(window, o.End.Sub(begin).Seconds())
	}
	cpu := cpuSeconds() - cpu0
	rss := peakRSSMB()
	in.compiled = readCompiled(cm).minus(c0)
	if cfg.traced && svc != nil {
		if in.st1, err = svc.stats(ctx); err != nil {
			return nil, err
		}
	}
	closeTarget()

	in.ops = ops
	rep.Attempted = len(ops)
	failedOps := make(map[int]bool)
	fail := func(o *op, format string, args ...any) {
		failedOps[o.ID] = true
		rep.problem("op %d (%s %s seed %d): %s", o.ID, o.Req.Circuit, o.Class, o.Req.Seed, fmt.Sprintf(format, args...))
	}
	bad, acc, err := checkOps(ops, refs)
	if err != nil {
		return nil, err
	}
	for _, o := range ops {
		if why, ok := bad[o.ID]; ok {
			fail(o, "%s", why)
		}
	}
	in.acc = acc

	var local map[string]*core.Testbench
	if cfg.traced || w.entry == entryCluster {
		probeReps := 1
		if cfg.traced {
			probeReps = setupRuns
		}
		if local, in.buildS, in.compileS, err = probeBuild(w.circuits, probeReps); err != nil {
			return nil, err
		}
	}
	if w.entry == entryCluster {
		// Every cluster result must equal the in-process estimator's for
		// the same request.
		var inproc []float64
		for _, o := range ops {
			if o.Err != "" {
				continue
			}
			t0 := time.Now()
			res, err := estimateInProcess(ctx, local[o.Req.Circuit], o.Req)
			inproc = append(inproc, time.Since(t0).Seconds())
			if err != nil {
				fail(o, "in-process run: %v", err)
			} else if why := sameResult(o.Res, fromCore(res), "cluster result", "in-process result"); why != "" {
				fail(o, "%s", why)
			}
		}
		rep.Detail["cluster.inprocess_latency_p50_s"] = median(inproc)
		in.clusterOverhead = ratio(median(latencies(ops)), median(inproc))
	}

	if cfg.traced {
		if err := measureLayers(ctx, w, cfg, ops, local, tr, &in, fail, warm); err != nil {
			return nil, err
		}
	}

	rep.Failed = len(failedOps)
	rep.Correct = rep.Failed == 0 && len(ops) > 0
	if len(ops) == 0 {
		rep.problem("no op completed")
	}
	describe(rep, ops, acc, window, cpu)
	if cfg.traced {
		path := filepath.Join(cfg.out, w.name+".trace.json")
		if err := tr.write(path, w.name, cfg.seed); err != nil {
			return nil, err
		}
		spans, err := readTrace(path)
		if err != nil {
			return nil, err
		}
		rep.Metrics = perLayer(spans, in)
	} else {
		rep.Metrics = endToEnd(ops, rep.SetupSeconds, rss)
	}
	return rep, nil
}

// measureLayers is the traced run's work after the window: an untraced
// re-run of the window's first half for the tracing overhead, and the
// layer-by-layer decomposition and replay of its first estimates. Each
// reproduction must equal the window's result bit for bit.
func measureLayers(ctx context.Context, w *workload, cfg runConfig, ops []*op, local map[string]*core.Testbench,
	tr *tracer, in *layerInputs, fail func(*op, string, ...any), warm *rand.Rand) error {
	// The untraced re-run sends the same request sequence to a fresh
	// setup with no registry, no spans and no compiled-engine counters.
	sim.RegisterCompiledMetrics(nil)
	n := (len(ops) + 1) / 2
	plain, err := start(ctx, w, newSeed(warm), nil, nil)
	if err != nil {
		return fmt.Errorf("untraced setup: %w", err)
	}
	rerun := closedLoop(ctx, plain, newGenerator(w, cfg.seed, n), w.callers, time.Now().Add(time.Hour))
	plain.close()
	for i, o := range rerun {
		switch orig := ops[i]; {
		case o.Err != "":
			fail(orig, "untraced re-run: %s", o.Err)
		case orig.Err == "":
			if why := sameResult(orig.Res, o.Res, "traced result", "untraced re-run's"); why != "" {
				fail(orig, "%s", why)
			}
		}
	}
	in.traceOverhead = ratio(median(latencies(ops[:n])), median(latencies(rerun)))

	seen := make(map[string]bool)
	done := 0
	for _, o := range fresh(ops) {
		if done == decomposeOps {
			break
		}
		if seen[o.key()] {
			continue
		}
		seen[o.key()] = true
		done++
		tb := local[o.Req.Circuit]
		res, rp, err := decompose(ctx, tb, o.Req, tr, o.ID, &in.p1)
		if err != nil {
			fail(o, "decomposed run: %v", err)
			continue
		}
		if why := sameResult(fromCore(res), o.Res, "decomposed result", "untraced result"); why != "" {
			fail(o, "%s", why)
		}
		if !replayable(o.Req) {
			continue
		}
		got, err := replay(tb, o.Req, rp, tr, o.ID)
		if err != nil {
			fail(o, "replay: %v", err)
		} else if why := sameResult(got, o.Res, "replayed merge", "untraced result"); why != "" {
			fail(o, "%s", why)
		}
	}
	return nil
}

// probeBuild builds and compiles every circuit reps times, as the
// setups do, and returns the last testbenches with the median seconds
// of building (generate, freeze, testbench) and of compiling, each
// summed over the circuits.
func probeBuild(circuits []string, reps int) (map[string]*core.Testbench, float64, float64, error) {
	tbs := make(map[string]*core.Testbench)
	var buildS, compileS float64
	for _, name := range circuits {
		var builds, compiles []float64
		for range reps {
			t0 := time.Now()
			tb, err := buildTestbench(name)
			if err != nil {
				return nil, 0, 0, err
			}
			t1 := time.Now()
			compile.For(tb.Circuit)
			builds = append(builds, t1.Sub(t0).Seconds())
			compiles = append(compiles, time.Since(t1).Seconds())
			tbs[name] = tb
		}
		buildS += median(builds)
		compileS += median(compiles)
	}
	return tbs, buildS, compileS, nil
}

func readCompiled(cm *sim.CompiledMetrics) compiledCounts {
	if cm == nil {
		return compiledCounts{}
	}
	return compiledCounts{cm.Execs.Value(), cm.Insts.Value(), cm.SpillRows.Value(), cm.LaneSteps.Value()}
}

// describe fills the report's detail: the end-to-end numbers beside the
// gated ones, with their sample counts, and one digest per op.
func describe(rep *report, ops []*op, acc accuracy, window, cpu float64) {
	lat := latencies(ops)
	fr := fresh(ops)
	rep.Samples["latency"] = len(lat)
	rep.Samples["fresh"] = len(fr)
	rep.Detail["window_s"] = window
	rep.Detail["throughput_per_s"] = ratio(float64(len(lat)), window)
	rep.Detail["cpu_s_per_estimate"] = ratio(cpu, float64(len(lat)))
	rep.Detail["latency_mean_s"] = mean(lat)
	rep.Detail["latency_p99_s"] = quantile(lat, 0.99)
	rep.Detail["ops_failed_frac"] = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.Detail["rel_err_vs_ref"] = median(acc.RelErr)
	rep.Detail["spec_miss_frac"] = ratio(float64(acc.SpecMiss), float64(acc.Estimates))
	var samples, cycles []float64
	for _, o := range fr {
		samples = append(samples, float64(o.Res.SampleSize))
		cycles = append(cycles, float64(o.Res.Hidden+o.Res.Sampled))
	}
	rep.Detail["samples_per_estimate"] = mean(samples)
	rep.Detail["sim_cycles_per_estimate"] = mean(cycles)

	byClass := make(map[string][]float64)
	for _, o := range ops {
		if o.Err != "" {
			continue
		}
		class := o.Class
		if o.Res.Cached {
			class = "hit"
		}
		byClass[class] = append(byClass[class], o.latency())
	}
	if len(byClass) > 1 {
		for class, l := range byClass {
			rep.Detail["latency_p50_s."+class] = median(l)
			rep.Samples["latency."+class] = len(l)
		}
	}
	for _, o := range ops {
		rep.Digests = append(rep.Digests, opDigest{Op: o.ID, Circuit: o.Req.Circuit, Class: o.Class, Seed: o.Req.Seed,
			Result: o.Res.digest(), Cached: o.Res.Cached, Latency: o.latency()})
	}
	sort.Slice(rep.Digests, func(i, j int) bool { return rep.Digests[i].Op < rep.Digests[j].Op })
}
