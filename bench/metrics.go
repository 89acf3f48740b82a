package main

import "repro/internal/service"

// metricDef declares a metric as BENCHMARK.json does. Bound is the
// share of the baseline median by which an end-to-end metric may get
// worse before a change counts as a regression; per-layer metrics have
// none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are the metrics an untraced run prints. Latencies are
// host seconds per estimate as its caller saw them. Each is a median or
// a peak: the work of an estimate varies with its seed, and a mean over
// the few estimates of a window follows those draws.
var endToEndDefs = []metricDef{
	{"latency_p50_s", "s", "lower", 0.24},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayerDefs are the metrics a traced run prints. Shares are of the
// time of the spans named in the README; a layer a workload never
// crosses reads 0.
var perLayerDefs = []metricDef{
	{"netlist.build_s", "s", "lower", 0},
	{"compile.compile_s", "s", "lower", 0},
	{"core.estimate_s", "s", "lower", 0},
	{"core.warmup_share", "ratio", "lower", 0},
	{"core.select_share", "ratio", "lower", 0},
	{"core.select_trials", "count", "lower", 0},
	{"core.select_waste_ratio", "ratio", "lower", 0},
	{"sim.phase1_cycles_per_s", "1/s", "higher", 0},
	{"core.plan_share", "ratio", "lower", 0},
	{"core.tail_share", "ratio", "lower", 0},
	{"sim.tail_warmup_share", "ratio", "lower", 0},
	{"sim.tail_hidden_share", "ratio", "lower", 0},
	{"sim.tail_sampled_share", "ratio", "lower", 0},
	{"core.merge_share", "ratio", "lower", 0},
	{"sim.hidden_lane_cycles_per_s", "1/s", "higher", 0},
	{"sim.sampled_lane_cycles_per_s", "1/s", "higher", 0},
	{"core.merge_rounds", "count", "lower", 0},
	{"compile.instructions_per_estimate", "count", "lower", 0},
	{"compile.lanes_per_exec", "count", "higher", 0},
	{"compile.spill_rows_per_estimate", "count", "lower", 0},
	{"core.samples_per_estimate", "count", "lower", 0},
	{"core.sim_cycles_per_estimate", "count", "lower", 0},
	{"core.rel_err_vs_ref", "ratio", "lower", 0},
	{"core.spec_miss_frac", "ratio", "lower", 0},
	{"service.http_share", "ratio", "lower", 0},
	{"service.queue_wait_share", "ratio", "lower", 0},
	{"service.run_share", "ratio", "lower", 0},
	{"service.cache_hit_ratio", "ratio", "higher", 0},
	{"service.registry_hit_ratio", "ratio", "higher", 0},
	{"cluster.overhead_ratio", "ratio", "lower", 0},
	{"cluster.first_block_share", "ratio", "lower", 0},
	{"cluster.stream_share", "ratio", "lower", 0},
	{"cluster.blocks_per_job", "count", "lower", 0},
	{"cluster.leases_per_job", "count", "lower", 0},
	{"cluster.steals_per_job", "count", "lower", 0},
	{"cluster.reassignments_per_job", "count", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
}

// endToEnd computes the untraced metrics from the window's ops.
func endToEnd(ops []*op, setup []float64, rss float64) map[string]float64 {
	return map[string]float64{
		"latency_p50_s": median(latencies(ops)),
		"setup_s":       median(setup),
		"peak_rss_mb":   rss,
	}
}

func latencies(ops []*op) []float64 {
	var lat []float64
	for _, o := range ops {
		if o.Err == "" {
			lat = append(lat, o.latency())
		}
	}
	return lat
}

// fresh returns the ops that ran an estimate, as opposed to failing or
// being answered from the result cache.
func fresh(ops []*op) []*op {
	var out []*op
	for _, o := range ops {
		if o.Err == "" && !o.Res.Cached {
			out = append(out, o)
		}
	}
	return out
}

// layerInputs is everything a traced run measured for the per-layer
// metrics besides the spans.
type layerInputs struct {
	entry            string
	ops              []*op
	acc              accuracy
	buildS, compileS float64
	p1               phase1
	compiled         compiledCounts        // window delta
	st0, st1         service.StatsResponse // GET /v1/stats before and after the window
	clusterOverhead  float64
	traceOverhead    float64
}

// compiledCounts snapshots the compiled engine's process-wide counters.
type compiledCounts struct{ Execs, Insts, SpillRows, LaneSteps uint64 }

func (c compiledCounts) minus(o compiledCounts) compiledCounts {
	return compiledCounts{c.Execs - o.Execs, c.Insts - o.Insts, c.SpillRows - o.SpillRows, c.LaneSteps - o.LaneSteps}
}

// perLayer computes the traced metrics. Self times come from the trace
// file; a share is a layer's self time over the time of its parent
// spans: client latency for the window's service and cluster layers,
// the decomposed estimate for the core phases, the replayed tail for
// the simulator layers.
func perLayer(spans []span, in layerInputs) map[string]float64 {
	var window []span
	for _, s := range spans {
		if s.Op >= 0 { // setup spans and warm-up jobs carry negative op IDs
			window = append(window, s)
		}
	}
	L := layers(window)
	get := func(name string) layerTotals {
		if lt := L[name]; lt != nil {
			return *lt
		}
		return layerTotals{}
	}
	dec, rep, opSpans := get("estimate.decomposed"), get("estimate.replay"), get("op")
	warm, sel := get("core.warmup"), get("core.select")
	hid, smp, tw := get("sim.tail_hidden"), get("sim.tail_sampled"), get("sim.tail_warmup")

	fr := fresh(in.ops)
	var samples, cycles, blocks, leases, steals float64
	for _, o := range fr {
		samples += float64(o.Res.SampleSize)
		cycles += float64(o.Res.Hidden + o.Res.Sampled)
		blocks += float64(o.Blocks)
		leases += float64(o.Leases)
		steals += float64(o.Steals)
	}
	nFresh := float64(len(fr))
	m := map[string]float64{
		"netlist.build_s":                   in.buildS,
		"compile.compile_s":                 in.compileS,
		"core.estimate_s":                   ratio(dec.Total, float64(dec.Count)),
		"core.warmup_share":                 ratio(warm.Self, dec.Total),
		"core.select_share":                 ratio(sel.Self, dec.Total),
		"core.select_trials":                ratio(float64(in.p1.Trials), float64(dec.Count)),
		"core.select_waste_ratio":           ratio(float64(in.p1.Wasted), float64(in.p1.Trials)),
		"sim.phase1_cycles_per_s":           ratio(float64(warm.Work+sel.Work), warm.Self+sel.Self),
		"core.plan_share":                   ratio(get("core.plan").Self, dec.Total),
		"core.tail_share":                   ratio(get("core.tail").Self, dec.Total),
		"sim.tail_warmup_share":             ratio(tw.Self, rep.Total),
		"sim.tail_hidden_share":             ratio(hid.Self, rep.Total),
		"sim.tail_sampled_share":            ratio(smp.Self, rep.Total),
		"core.merge_share":                  ratio(get("core.merge").Self, rep.Total),
		"sim.hidden_lane_cycles_per_s":      ratio(float64(tw.Work+hid.Work), tw.Self+hid.Self),
		"sim.sampled_lane_cycles_per_s":     ratio(float64(smp.Work), smp.Self),
		"core.merge_rounds":                 ratio(float64(get("core.merge").Work), float64(rep.Count)),
		"compile.instructions_per_estimate": ratio(float64(in.compiled.Insts), nFresh),
		"compile.lanes_per_exec":            ratio(float64(in.compiled.LaneSteps), float64(in.compiled.Execs)),
		"compile.spill_rows_per_estimate":   ratio(float64(in.compiled.SpillRows), nFresh),
		"core.samples_per_estimate":         ratio(samples, nFresh),
		"core.sim_cycles_per_estimate":      ratio(cycles, nFresh),
		"core.rel_err_vs_ref":               median(in.acc.RelErr),
		"core.spec_miss_frac":               ratio(float64(in.acc.SpecMiss), float64(in.acc.Estimates)),
		"trace.overhead_ratio":              in.traceOverhead,
	}
	if in.entry != entryInProcess {
		cache := in.st1.Cache.Hits + in.st1.Cache.Misses - in.st0.Cache.Hits - in.st0.Cache.Misses
		regs := in.st1.Registry.Hits + in.st1.Registry.Misses - in.st0.Registry.Hits - in.st0.Registry.Misses
		m["service.http_share"] = ratio(opSpans.Self, opSpans.Total)
		m["service.queue_wait_share"] = ratio(get("service.queue").Self, opSpans.Total)
		m["service.run_share"] = ratio(get("service.run").Self, opSpans.Total)
		m["service.cache_hit_ratio"] = ratio(float64(in.st1.Cache.Hits-in.st0.Cache.Hits), float64(cache))
		m["service.registry_hit_ratio"] = ratio(float64(in.st1.Registry.Hits-in.st0.Registry.Hits), float64(regs))
	}
	if in.entry == entryCluster {
		m["cluster.overhead_ratio"] = in.clusterOverhead
		m["cluster.first_block_share"] = ratio(get("cluster.first_block").Self, opSpans.Total)
		m["cluster.stream_share"] = ratio(get("cluster.stream").Self, opSpans.Total)
		m["cluster.blocks_per_job"] = ratio(blocks, nFresh)
		m["cluster.leases_per_job"] = ratio(leases, nFresh)
		m["cluster.steals_per_job"] = ratio(steals, nFresh)
		var reassigned uint64
		for _, w := range in.st1.Workers {
			reassigned += w.Reassignments
		}
		for _, w := range in.st0.Workers {
			reassigned -= w.Reassignments
		}
		m["cluster.reassignments_per_job"] = ratio(float64(reassigned), nFresh)
	}
	for _, d := range perLayerDefs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	return m
}
