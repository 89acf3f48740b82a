package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/refsim"
	"repro/internal/service"
)

// reference.json holds a long consecutive-cycle simulation (refsim) per
// (circuit, power mode) the workloads and the smoke test use. It is
// generated by --calibrate and never during a timed run.
//
//go:embed reference.json
var referenceJSON []byte

type reference struct {
	Circuit   string  `json:"circuit"`
	Mode      string  `json:"mode"`
	Power     float64 `json:"power"`
	RelStdErr float64 `json:"relStdErr"`
	Cycles    int     `json:"cycles"`
	Warmup    int     `json:"warmup"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
}

type refTable []reference

func loadRefs() (refTable, error) {
	var f struct {
		References refTable `json:"references"`
	}
	if err := json.Unmarshal(referenceJSON, &f); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return f.References, nil
}

// lookup finds the reference a request's estimate is checked against.
// Control-variate, antithetic and breakdown requests estimate the same
// general-delay power as plain ones.
func (t refTable) lookup(req service.JobRequest) (reference, error) {
	mode := req.Options.Options().Mode.String()
	for _, r := range t {
		if r.Circuit == req.Circuit && r.Mode == mode {
			return r, nil
		}
	}
	return reference{}, fmt.Errorf("no reference for %s %s in reference.json (regenerate it with --calibrate)", req.Circuit, mode)
}

// require fails fast when any request the workload can send has no
// reference: it checks every option class on every circuit.
func (t refTable) require(w *workload) error {
	for _, c := range w.circuits {
		for _, class := range w.classes {
			if _, err := t.lookup(service.JobRequest{Circuit: c, Options: classOptions(class)}); err != nil {
				return fmt.Errorf("workload %s: %w", w.name, err)
			}
		}
	}
	return nil
}

// calibrationSet lists every (circuit, class) whose power the workloads
// and the smoke test estimate; classes map onto the two power modes.
func calibrationSet() []service.JobRequest {
	var reqs []service.JobRequest
	for _, w := range append(workloads(), smokeWorkloads()...) {
		for _, c := range w.circuits {
			for _, class := range w.classes {
				reqs = append(reqs, service.JobRequest{Circuit: c, Options: classOptions(class)})
			}
		}
	}
	return reqs
}

// calibrate simulates every reference the workloads need and writes
// the table to path. Large circuits get 20k cycles, the rest 200k, each
// after a warm-up of a tenth as many cycles.
func calibrate(path string, log io.Writer) error {
	var refs refTable
	seen := make(map[string]bool)
	for _, req := range calibrationSet() {
		mode := req.Options.Options().Mode
		key := req.Circuit + "/" + mode.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		tb, err := buildTestbench(req.Circuit)
		if err != nil {
			return err
		}
		cycles := 200_000
		if tb.Circuit.NumGates() > 10_000 {
			cycles = 20_000
		}
		const seed = 1997
		factory, err := req.Source.Factory(len(tb.Circuit.Inputs))
		if err != nil {
			return err
		}
		start := time.Now()
		r := refsim.Run(tb.NewSessionMode(factory(seed), mode), cycles/10, cycles)
		ref := reference{Circuit: req.Circuit, Mode: mode.String(), Power: r.Power, RelStdErr: r.RelStdErr(),
			Cycles: cycles, Warmup: cycles / 10, Seed: seed, Seconds: time.Since(start).Seconds()}
		fmt.Fprintf(log, "%s %s: %.6g W, rel. std. err. %.3f%%, %d cycles, %.1f s\n",
			ref.Circuit, ref.Mode, ref.Power, 100*ref.RelStdErr, ref.Cycles, ref.Seconds)
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Circuit != refs[j].Circuit {
			return refs[i].Circuit < refs[j].Circuit
		}
		return refs[i].Mode < refs[j].Mode
	})
	b, err := json.MarshalIndent(struct {
		References refTable `json:"references"`
	}{refs}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
