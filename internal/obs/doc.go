// Package obs is the dependency-free observability substrate shared by
// every layer of the system: a metrics registry with Prometheus
// text-format exposition, the constructor of its log/slog loggers
// (JSON or logfmt), and a per-job trace recorder.
//
// # Metrics
//
// A Registry hands out Counter and Histogram instruments keyed by
// metric name, plus labeled variants (CounterVec, HistogramVec) and
// scrape-time callback metrics (CounterFunc, GaugeFunc). There is no
// settable gauge: a value that belongs to one job lives on that job,
// not in a process-wide cell the last job to write overwrites.
// Hot-path updates are single atomic operations on pre-resolved
// instrument handles; label resolution (the map lookup) happens once
// at setup, never per increment. Every instrument is safe for
// concurrent use.
//
// All instrument methods are nil-receiver safe, and a nil *Registry
// hands out nil instruments, so "observability disabled" is spelled by
// simply not constructing a registry: call sites keep their
// instrumentation statements and pay only a nil-check branch
// (benchmarked at <1% of the compiled duty cycle — see
// BenchmarkCompiledObsOverhead).
//
// Exposition is the Prometheus text format, served by Registry.Handler
// (mounted at /metrics on dipe-server and dipe-worker) or written
// directly with WriteProm. Metric names follow the repository
// convention dipe_<subsystem>_<name>, enforced by
// scripts/check_metric_names.sh in CI.
//
// # Logging
//
// Logging is the standard library's log/slog. NewLogger builds a
// *slog.Logger on slog's text (logfmt) or JSON handler whose records
// open with ts, the time in RFC 3339 UTC with nanoseconds, and a
// lowercase level, and it refuses a level or format it does not know.
// A component handed a nil logger logs to slog.New(slog.DiscardHandler).
//
// # Tracing
//
// Trace records a job's lifecycle as an ordered span list (submit →
// select-interval → plan-resolve → shard → lease/steal/expiry →
// merge-round → stop) with millisecond timestamps relative to the trace
// start. Traces travel through context (ContextWithTrace / TraceFrom)
// so the core estimator and cluster coordinator can annotate spans
// without signature changes, and Import splices spans persisted before
// a restart ahead of post-resume spans with monotonically increasing
// timestamps. Span capacity is bounded; overflow is counted, not
// allocated.
package obs
