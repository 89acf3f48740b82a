package service

import "testing"

// TestResultKeyOptions pins what keys the result cache. Spelling a
// default out, or setting a knob that cannot change a Result, keeps the
// key; every input a Result depends on moves it, each to a key of its
// own.
func TestResultKeyOptions(t *testing.T) {
	base := JobRequest{Circuit: "s298", Seed: 5}
	src := CircuitSource{Builtin: "s298"}
	key := resultKey(src, base)
	if key == "" {
		t.Fatal("base request has no cache key")
	}

	same := map[string]func(*JobRequest){
		"workers":      func(r *JobRequest) { r.Options.Workers = 3 },
		"relErr":       func(r *JobRequest) { r.Options.RelErr = 0.05 },
		"confidence":   func(r *JobRequest) { r.Options.Confidence = 0.99 },
		"alpha":        func(r *JobRequest) { r.Options.Alpha = 0.20 },
		"seqLen":       func(r *JobRequest) { r.Options.SeqLen = 320 },
		"replications": func(r *JobRequest) { r.Options.Replications = 64 },
		"maxSamples":   func(r *JobRequest) { r.Options.MaxSamples = 1 << 21 },
		"powerMode":    func(r *JobRequest) { r.Options.PowerMode = "general-delay" },
		"variance":     func(r *JobRequest) { r.Options.Variance = "none" },
		"source kind":  func(r *JobRequest) { r.Source.Kind = "iid" },
		"p":            func(r *JobRequest) { r.Source.P = 0.5 },
	}
	all := base
	for name, set := range same {
		req := base
		set(&req)
		if k := resultKey(src, req); k != key {
			t.Errorf("%s spelled out moved the key", name)
		}
		set(&all)
	}
	if k := resultKey(src, all); k != key {
		t.Error("every default spelled out at once moved the key")
	}

	zero := 0
	differ := map[string]func(*JobRequest, *CircuitSource){
		"seed":         func(r *JobRequest, _ *CircuitSource) { r.Seed = 6 },
		"interval":     func(r *JobRequest, _ *CircuitSource) { r.Interval = &zero },
		"relErr":       func(r *JobRequest, _ *CircuitSource) { r.Options.RelErr = 0.1 },
		"confidence":   func(r *JobRequest, _ *CircuitSource) { r.Options.Confidence = 0.95 },
		"alpha":        func(r *JobRequest, _ *CircuitSource) { r.Options.Alpha = 0.1 },
		"seqLen":       func(r *JobRequest, _ *CircuitSource) { r.Options.SeqLen = 640 },
		"replications": func(r *JobRequest, _ *CircuitSource) { r.Options.Replications = 128 },
		"maxSamples":   func(r *JobRequest, _ *CircuitSource) { r.Options.MaxSamples = 1 << 20 },
		"powerMode":    func(r *JobRequest, _ *CircuitSource) { r.Options.PowerMode = "zero-delay" },
		"variance":     func(r *JobRequest, _ *CircuitSource) { r.Options.Variance = "antithetic" },
		"breakdown":    func(r *JobRequest, _ *CircuitSource) { r.Options.Breakdown = true },
		"source kind":  func(r *JobRequest, _ *CircuitSource) { r.Source.Kind = "lag" },
		"p":            func(r *JobRequest, _ *CircuitSource) { r.Source.P = 0.3 },
		"rho":          func(r *JobRequest, _ *CircuitSource) { r.Source.Kind, r.Source.Rho = "lag", 0.5 },
		"provenance": func(_ *JobRequest, s *CircuitSource) {
			*s = CircuitSource{Name: "s298", Format: "bench", Text: "INPUT(a)\nOUTPUT(q)\nq = DFF(a)\n"}
		},
	}
	seen := map[string]string{key: "the base request"}
	for name, set := range differ {
		req, s := base, src
		set(&req, &s)
		k := resultKey(s, req)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s shares its key with %s", name, prev)
			continue
		}
		seen[k] = name
	}
}
