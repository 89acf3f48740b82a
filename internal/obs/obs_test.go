package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestConcurrentIncrements hammers one counter, one histogram and one
// labeled counter from many goroutines; run under -race this is the
// data-race gate, and the final counts prove no increment was lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dipe_test_ops_total", "ops")
	h := r.Histogram("dipe_test_latency_seconds", "latency", []float64{0.5})
	v := r.CounterVec("dipe_test_labeled_total", "labeled", "worker")
	const goroutines, per = 8, 10_000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			child := v.With("w" + string(rune('0'+id)))
			for j := 0; j < per; j++ {
				c.Inc()
				h.Observe(float64(j%2) + 0.25) // alternates buckets
				child.Inc()
			}
		}(i)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Fatalf("counter lost increments: got %d want %d", got, goroutines*per)
	}
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("histogram lost observations: got %d want %d", got, goroutines*per)
	}
	wantSum := float64(goroutines) * (per/2*0.25 + per/2*1.25)
	if math.Abs(h.Sum()-wantSum) > 1e-6 {
		t.Fatalf("histogram sum: got %g want %g", h.Sum(), wantSum)
	}
	for i := 0; i < goroutines; i++ {
		if got := v.With("w" + string(rune('0'+i))).Value(); got != per {
			t.Fatalf("labeled counter %d: got %d want %d", i, got, per)
		}
	}
}

// TestHistogramBucketBoundaries pins the le semantics: a value equal
// to a bound lands in that bound's bucket (cumulative counts include
// it), values above every bound land only in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram([]float64{1, 2.5, 5})
	for _, v := range []float64{0.5, 1, 1.0000001, 2.5, 5, 7} {
		h.Observe(v)
	}
	got := h.BucketCounts()
	// le=1: {0.5, 1}; le=2.5: +{1.0000001, 2.5}; le=5: +{5}; +Inf: +{7}
	want := []uint64{2, 4, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("bucket count: got %d want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("bucket %d: got %d want %d (all %v)", i, got[i], want[i], got)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count: got %d want 6", h.Count())
	}
}

// TestExpositionGolden locks the Prometheus text rendering: HELP/TYPE
// comments, label escaping, histogram bucket/sum/count lines, and
// scrape-time func metrics.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("dipe_test_ops_total", "Operations started.").Add(3)
	r.GaugeFunc("dipe_test_half_width", "Current half-width.", func() float64 { return 0.125 })
	h := r.Histogram("dipe_test_latency_seconds", "Stream latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(2)
	v := r.CounterVec("dipe_test_leases_total", "Leases granted.", "worker", "kind")
	v.With("http://b:1", "steal").Add(2)
	v.With(`http://a:1"x`, "grant").Inc()
	r.GaugeFunc("dipe_test_temperature", "Scrape-time gauge.", func() float64 { return 36.6 })
	r.CounterFunc("dipe_test_waves_total", "Scrape-time counter.", func() uint64 { return 7 })

	var buf bytes.Buffer
	r.WriteProm(&buf)
	want := `# HELP dipe_test_ops_total Operations started.
# TYPE dipe_test_ops_total counter
dipe_test_ops_total 3
# HELP dipe_test_half_width Current half-width.
# TYPE dipe_test_half_width gauge
dipe_test_half_width 0.125
# HELP dipe_test_latency_seconds Stream latency.
# TYPE dipe_test_latency_seconds histogram
dipe_test_latency_seconds_bucket{le="0.1"} 1
dipe_test_latency_seconds_bucket{le="1"} 2
dipe_test_latency_seconds_bucket{le="+Inf"} 3
dipe_test_latency_seconds_sum 2.55
dipe_test_latency_seconds_count 3
# HELP dipe_test_leases_total Leases granted.
# TYPE dipe_test_leases_total counter
dipe_test_leases_total{worker="http://a:1\"x",kind="grant"} 1
dipe_test_leases_total{worker="http://b:1",kind="steal"} 2
# HELP dipe_test_temperature Scrape-time gauge.
# TYPE dipe_test_temperature gauge
dipe_test_temperature 36.6
# HELP dipe_test_waves_total Scrape-time counter.
# TYPE dipe_test_waves_total counter
dipe_test_waves_total 7
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestRegistryIdempotent checks re-registration returns the same
// instrument and nil registries hand out working nil instruments.
func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("dipe_test_x_total", "x")
	b := r.Counter("dipe_test_x_total", "x")
	if a != b {
		t.Fatal("re-registration returned a different counter")
	}
	var nilReg *Registry
	nilReg.Counter("dipe_test_y_total", "y").Inc()
	nilReg.GaugeFunc("dipe_test_z", "z", func() float64 { return 1 })
	nilReg.Histogram("dipe_test_h", "h", nil).Observe(1)
	nilReg.CounterVec("dipe_test_v_total", "v", "k").With("a").Inc()
	nilReg.WriteProm(&bytes.Buffer{})

	defer func() {
		if recover() == nil {
			t.Fatal("type conflict did not panic")
		}
	}()
	r.GaugeFunc("dipe_test_x_total", "x", func() float64 { return 0 })
}

// TestLoggerFormats checks level filtering, both encodings, the ts
// stamp in RFC 3339 UTC, and the level and format names NewLogger
// refuses.
func TestLoggerFormats(t *testing.T) {
	checkTS := func(ts string) {
		t.Helper()
		if _, err := time.Parse(time.RFC3339Nano, ts); err != nil || !strings.HasSuffix(ts, "Z") {
			t.Fatalf("ts %q is not an RFC 3339 UTC time (%v)", ts, err)
		}
	}

	var buf bytes.Buffer
	l, err := NewLogger(&buf, "info", "logfmt")
	if err != nil {
		t.Fatal(err)
	}
	l = l.With("job", "j1")
	l.Debug("dropped")
	l.Info("job started", "worker", "http://a:1", "n", 3)
	line := buf.String()
	ts, rest, _ := strings.Cut(strings.TrimPrefix(line, "ts="), " ")
	want := "level=info msg=\"job started\" job=j1 worker=http://a:1 n=3\n"
	if !strings.HasPrefix(line, "ts=") || rest != want {
		t.Fatalf("logfmt: got %q want ts=<time> %q", line, want)
	}
	checkTS(ts)

	buf.Reset()
	j, err := NewLogger(&buf, "warn", "json")
	if err != nil {
		t.Fatal(err)
	}
	j.Info("dropped")
	j.Warn("lease expired", "range", "[0,8)", "attempt", 2)
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json decode: %v (%q)", err, buf.String())
	}
	if len(rec) != 5 || rec["level"] != "warn" || rec["msg"] != "lease expired" || rec["range"] != "[0,8)" || rec["attempt"] != 2.0 {
		t.Fatalf("json record mismatch: %v", rec)
	}
	ts, _ = rec["ts"].(string)
	checkTS(ts)

	for _, bad := range [][2]string{{"bogus", "logfmt"}, {"info", "xml"}} {
		if _, err := NewLogger(&buf, bad[0], bad[1]); err == nil {
			t.Errorf("NewLogger(%q, %q) accepted", bad[0], bad[1])
		}
	}
}

// TestTraceOrderingAndImport checks spans stay ordered, Begin/End
// stamps close, and Import keeps monotonic times across a resume.
func TestTraceOrderingAndImport(t *testing.T) {
	tr := NewTrace()
	tr.Event("submit", "id", "j1")
	end := tr.Begin("select-interval")
	end()
	tr.Event("stop")
	spans := tr.Spans()
	if len(spans) != 3 || spans[0].Name != "submit" || spans[1].Name != "select-interval" || spans[2].Name != "stop" {
		t.Fatalf("span order: %+v", spans)
	}
	if spans[1].EndMS == nil || *spans[1].EndMS < spans[1].T {
		t.Fatalf("span end not stamped: %+v", spans[1])
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].T < spans[i-1].T {
			t.Fatalf("non-monotonic spans: %+v", spans)
		}
	}

	resumed := NewTrace()
	resumed.Import(spans)
	resumed.Event("resume")
	resumed.Event("stop")
	all := resumed.Spans()
	if len(all) != 5 || all[0].Name != "submit" || all[3].Name != "resume" || all[4].Name != "stop" {
		t.Fatalf("imported span order: %+v", all)
	}
	for i := 1; i < len(all); i++ {
		if all[i].T < all[i-1].T {
			t.Fatalf("non-monotonic after import: %+v", all)
		}
	}

	var nilTrace *Trace
	nilTrace.Event("safe")
	nilTrace.Begin("safe")()
	nilTrace.Import(spans)
	if nilTrace.Spans() != nil || nilTrace.Len() != 0 {
		t.Fatal("nil trace misbehaved")
	}
}

// TestTraceCap checks the span cap drops, not grows.
func TestTraceCap(t *testing.T) {
	tr := NewTrace()
	for i := 0; i < maxSpans+10; i++ {
		tr.Event("merge-round")
	}
	if tr.Len() != maxSpans {
		t.Fatalf("len: got %d want %d", tr.Len(), maxSpans)
	}
	if tr.Dropped() != 10 {
		t.Fatalf("dropped: got %d want 10", tr.Dropped())
	}
}

// TestMetricNameValidation checks malformed names panic at
// registration, never at scrape.
func TestMetricNameValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad name did not panic")
		}
	}()
	NewRegistry().Counter("dipe test broken", "")
}

// TestHandler checks the HTTP exposition endpoint end to end.
func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("dipe_test_ops_total", "ops").Inc()
	var buf bytes.Buffer
	r.WriteProm(&buf)
	if !strings.Contains(buf.String(), "dipe_test_ops_total 1") {
		t.Fatalf("missing metric: %q", buf.String())
	}
}
