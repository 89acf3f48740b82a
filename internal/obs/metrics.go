package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is
// ready to use; a nil Counter silently drops updates, which is how
// disabled observability stays off the hot path.
type Counter struct {
	n atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds d.
func (c *Counter) Add(d uint64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

// Histogram counts observations into cumulative buckets with fixed
// upper bounds (an implicit +Inf bucket is always present). Observe is
// one atomic add on the owning bucket plus a CAS on the running sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1; last is +Inf
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// BucketCounts returns the cumulative per-bucket counts, one per bound
// plus the trailing +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	if h == nil {
		return nil
	}
	out := make([]uint64, len(h.counts))
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// DefBuckets is the default latency bucket layout (seconds), matching
// the conventional Prometheus spread.
var DefBuckets = []float64{.001, .0025, .005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric with its help text and, for labeled
// variants, one child instrument per label-value tuple.
type family struct {
	name    string
	help    string
	typ     string
	keys    []string // label keys; nil for unlabeled
	bounds  []float64
	counter *Counter
	hist    *Histogram
	cfn     func() uint64
	gfn     func() float64

	mu       sync.Mutex
	children map[string]any // joined label values -> *Counter/*Histogram
	order    []string
}

// Registry owns metric families and renders them in Prometheus text
// format. A nil Registry hands out nil instruments: every Counter and
// Histogram method is nil-safe, so call sites never branch.
// Registration is idempotent — asking for an existing name returns the
// prior instrument — but panics when the same name is reused with a
// different type or label set, since that is always a programming bug.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func (r *Registry) family(name, help, typ string, keys []string) *family {
	if !nameRE.MatchString(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.typ != typ || strings.Join(f.keys, ",") != strings.Join(keys, ",") {
			panic("obs: metric " + name + " re-registered with a different type or labels")
		}
		return f
	}
	f := &family{name: name, help: help, typ: typ, keys: keys, children: make(map[string]any)}
	r.fams[name] = f
	r.order = append(r.order, name)
	return f
}

// Counter registers (or returns) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeCounter, nil)
	if f.counter == nil && f.cfn == nil {
		f.counter = &Counter{}
	}
	return f.counter
}

// Histogram registers (or returns) an unlabeled histogram with the
// given upper bounds (DefBuckets when nil).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeHistogram, nil)
	if f.hist == nil {
		f.hist = newHistogram(bounds)
		f.bounds = f.hist.bounds
	}
	return f.hist
}

// CounterFunc registers a counter whose value is read at scrape time.
// Used for cheap package-global counters (e.g. the compiled engine's)
// that cannot hold a registry handle.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	f := r.family(name, help, typeCounter, nil)
	f.cfn = fn
}

// GaugeFunc registers a gauge whose value is read at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil {
		return
	}
	f := r.family(name, help, typeGauge, nil)
	f.gfn = fn
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// CounterVec is a counter family with labels. With resolves one child
// counter per label-value tuple; resolve once, increment many.
type CounterVec struct{ f *family }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, keys ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.family(name, help, typeCounter, keys)}
}

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, keys ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeHistogram, keys)
	if f.bounds == nil {
		f.bounds = newHistogram(bounds).bounds
	}
	return &HistogramVec{f: f}
}

func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.keys) {
		panic("obs: metric " + f.name + ": wrong label value count")
	}
	key := strings.Join(values, "\x00")
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// With returns the child counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.child(values, func() any { return &Counter{} }).(*Counter)
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	f := v.f
	return f.child(values, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// --- exposition ----------------------------------------------------------

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

func labelString(keys, values []string, extra ...string) string {
	if len(keys) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, k, escapeLabel(values[i]))
	}
	for i := 0; i+1 < len(extra); i += 2 {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extra[i], escapeLabel(extra[i+1]))
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func writeHist(w io.Writer, name, labels string, keys, values []string, h *Histogram) {
	cum := h.BucketCounts()
	for i, bound := range h.bounds {
		fmt.Fprintf(w, "%s_bucket%s %d\n", name,
			labelString(keys, values, "le", formatFloat(bound)), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", name,
		labelString(keys, values, "le", "+Inf"), cum[len(cum)-1])
	fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

// WriteProm renders every registered family in Prometheus text format,
// families in registration order, children sorted by label values.
func (r *Registry) WriteProm(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.fams[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		if f.keys == nil {
			switch {
			case f.cfn != nil:
				fmt.Fprintf(w, "%s %d\n", f.name, f.cfn())
			case f.gfn != nil:
				fmt.Fprintf(w, "%s %s\n", f.name, formatFloat(f.gfn()))
			case f.counter != nil:
				fmt.Fprintf(w, "%s %d\n", f.name, f.counter.Value())
			case f.hist != nil:
				writeHist(w, f.name, "", nil, nil, f.hist)
			}
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		children := make([]any, len(keys))
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		sorted := make([]int, len(keys))
		for i := range sorted {
			sorted[i] = i
		}
		sort.Slice(sorted, func(a, b int) bool { return keys[sorted[a]] < keys[sorted[b]] })
		for _, i := range sorted {
			values := strings.Split(keys[i], "\x00")
			labels := labelString(f.keys, values)
			switch c := children[i].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, labels, c.Value())
			case *Histogram:
				writeHist(w, f.name, labels, f.keys, values, c)
			}
		}
	}
}

// Handler serves the registry at scrape time (mount at /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteProm(w)
	})
}
