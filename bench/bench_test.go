package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// benchmarkSpec is BENCHMARK.json at the repository root.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestDeclarations checks that the workloads and metric tables match
// what BENCHMARK.json declares.
func TestDeclarations(t *testing.T) {
	spec := readSpec(t)
	var names, whys []string
	for _, w := range workloads() {
		names, whys = append(names, w.name), append(whys, w.why)
	}
	var specNames, specWhys []string
	for _, w := range spec.Workloads {
		specNames, specWhys = append(specNames, w.Name), append(specWhys, w.Why)
	}
	if !reflect.DeepEqual(names, specNames) || !reflect.DeepEqual(whys, specWhys) {
		t.Errorf("workloads %q / %q, BENCHMARK.json declares %q / %q", names, whys, specNames, specWhys)
	}
	if !reflect.DeepEqual(endToEndDefs, spec.EndToEnd) {
		t.Errorf("end-to-end metrics %+v, BENCHMARK.json declares %+v", endToEndDefs, spec.EndToEnd)
	}
	if !reflect.DeepEqual(perLayerDefs, spec.PerLayer) {
		t.Errorf("per-layer metrics %+v, BENCHMARK.json declares %+v", perLayerDefs, spec.PerLayer)
	}
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads() {
		if err := refs.require(w); err != nil {
			t.Error(err)
		}
	}
}

// TestSmoke runs every workload at the smoke size (small circuits, a
// fixed op count), untraced and traced, and checks that each run prints
// exactly the declared metrics and passes every correctness check: the
// reference accuracy, bit-identical repeats and cache hits, cluster
// results equal to in-process ones, and, traced, the decomposed phases
// and the replayed merge reproducing the untraced results bit for bit.
// It asserts nothing about time.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range smokeWorkloads() {
		for _, traced := range []bool{false, true} {
			name := w.name + "/untraced"
			declared := spec.EndToEnd
			if traced {
				name = w.name + "/traced"
				declared = spec.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := runConfig{seed: 7, seconds: 600, traced: traced, out: t.TempDir()}
				rep, err := runWorkload(context.Background(), w, cfg, refs)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted != w.maxOps {
					t.Errorf("correct=%v failed=%d attempted=%d (want %d); problems: %q",
						rep.Correct, rep.Failed, rep.Attempted, w.maxOps, rep.Problems)
				}
				var out bytes.Buffer
				if err := printRun(&out, w.name, rep); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var got []metricDef
				for _, l := range lines[:len(lines)-1] {
					f := strings.Fields(l)
					if len(f) != 4 || f[0] != w.name {
						t.Fatalf("metric line %q", l)
					}
					got = append(got, metricDef{Name: f[1], Unit: f[3]})
				}
				var want []metricDef
				for _, d := range declared {
					want = append(want, metricDef{Name: d.Name, Unit: d.Unit})
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("printed metrics %v, declared %v", got, want)
				}
				var sum summary
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatalf("summary line: %v", err)
				}
				if len(sum.Metrics) != len(declared) || sum.Attempted != rep.Attempted || sum.Correct != rep.Correct {
					t.Errorf("summary %+v does not match the run", sum)
				}
				if !traced {
					return
				}
				spans, err := readTrace(filepath.Join(cfg.out, w.name+".trace.json"))
				if err != nil {
					t.Fatal(err)
				}
				L := layers(spans)
				for _, layer := range []string{"estimate.decomposed", "estimate.replay", "core.tail", "sim.tail_sampled", "core.merge"} {
					if L[layer] == nil {
						t.Errorf("trace has no %s span", layer)
					}
				}
			})
		}
	}
}

// TestCovered checks the self-time rule: a parent's self time excludes
// the union of its children, counting overlaps once.
func TestCovered(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 10}
	kids := []span{{Start: 1, End: 3}, {Start: 2, End: 4}, {Start: 6, End: 7}, {Start: 9, End: 12}}
	if got := covered(parent, kids); got != 5 {
		t.Errorf("covered = %g, want 5", got)
	}
	spans := append([]span{parent}, kids...)
	for i := range kids {
		spans[i+1].ID, spans[i+1].Parent, spans[i+1].Name = i+2, 1, "child"
	}
	spans[0].Name = "parent"
	L := layers(spans)
	if L["parent"].Self != 5 || L["parent"].Total != 10 || L["child"].Count != 4 {
		t.Errorf("layers = parent %+v child %+v", *L["parent"], *L["child"])
	}
}
