package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed step of a traced run: a call the harness made into
// a layer, or a step imported from a service job's lifecycle trace.
// Start and End are seconds since the run started. Work counts what the
// step simulated (cycles or lane-cycles), where that applies.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"` // 0: top level
	Name   string  `json:"name"`
	Op     int     `json:"op"` // the estimate the span belongs to
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Work   uint64  `json:"work,omitempty"`
}

// tracer keeps a run's spans in memory until the run ends. A nil
// tracer records nothing, which is how untraced runs pay nothing for
// the spans.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) at(ts time.Time) float64 { return ts.Sub(t.base).Seconds() }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, op int, start, end time.Time, work uint64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Op: op,
		Start: t.at(start), End: t.at(end), Work: work})
	return id
}

// begin opens a span that end closes; children may be added in between.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Now()
	return t.add(name, parent, op, now, now, 0)
}

func (t *tracer) end(id int, work uint64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.at(now)
	t.spans[id-1].Work = work
}

// traceFile is the on-disk form of a run's spans.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	tf := traceFile{Workload: workload, Seed: seed, Spans: append([]span(nil), t.spans...)}
	t.mu.Unlock()
	b, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readTrace(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	return tf.Spans, nil
}

// layerTotals sums, per span name, the span count, the total duration,
// the self time (duration minus the part of it that child spans cover)
// and the work.
type layerTotals struct {
	Count int
	Total float64
	Self  float64
	Work  uint64
}

func layers(spans []span) map[string]*layerTotals {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]*layerTotals)
	for _, s := range spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Name] = lt
		}
		d := s.End - s.Start
		lt.Count++
		lt.Total += d
		lt.Self += d - covered(s, children[s.ID])
		lt.Work += s.Work
	}
	return out
}

// covered returns how much of the parent's interval the union of the
// child intervals covers.
func covered(parent span, kids []span) float64 {
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi float64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		sum += curHi - curLo
	}
	return sum
}
