package core

import (
	"math"
	"testing"

	"repro/internal/bench89"
	"repro/internal/vectors"
)

func TestDiagnoseAtSelectedInterval(t *testing.T) {
	// At the interval DIPE selects, the sample battery should mostly
	// pass and low-lag autocorrelation should be small.
	c := bench89.MustGet("s298")
	tb := DefaultTestbench(c)
	s := tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 41))
	sel, err := SelectInterval(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	d, err := Diagnose(s, sel.Interval, 640)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Tests) != 4 {
		t.Fatalf("battery size = %d", len(d.Tests))
	}
	if len(d.ACF) != 11 || d.ACF[0] != 1 {
		t.Fatalf("ACF shape: %v", d.ACF)
	}
	if d.Mean <= 0 || d.CV <= 0 {
		t.Fatalf("summary: mean=%g cv=%g", d.Mean, d.CV)
	}
	// A loose significance level: at least the worst-case battery should
	// usually pass at the accepted interval; assert only lag-1 sanity to
	// avoid flaky strictness.
	if math.Abs(d.ACF[1]) > 0.4 {
		t.Errorf("lag-1 autocorrelation %.3f at accepted interval %d", d.ACF[1], d.Interval)
	}
}

func TestDiagnoseDetectsConsecutiveCorrelation(t *testing.T) {
	// At interval 0 on a strongly correlated circuit, the battery must
	// reject (this is the phenomenon DIPE exists to handle).
	c := bench89.MustGet("s1494")
	tb := DefaultTestbench(c)
	s := tb.NewSession(vectors.NewIID(len(c.Inputs), 0.5, 43))
	s.StepHiddenN(512)
	d, err := Diagnose(s, 0, 2000)
	if err != nil {
		t.Fatal(err)
	}
	accepted := true
	for _, r := range d.Tests {
		accepted = accepted && r.Accept(0.20)
	}
	if accepted {
		t.Fatalf("battery accepted consecutive-cycle power of s1494: %+v", d.Tests)
	}
	if d.ACF[1] < 0.03 {
		t.Errorf("expected positive lag-1 autocorrelation, got %.3f", d.ACF[1])
	}
}

func TestDiagnoseValidation(t *testing.T) {
	c := bench89.S27()
	tb := DefaultTestbench(c)
	s := tb.NewSession(vectors.NewIID(4, 0.5, 1))
	if _, err := Diagnose(s, -1, 100); err == nil {
		t.Error("negative interval accepted")
	}
	if _, err := Diagnose(s, 0, 8); err == nil {
		t.Error("tiny n accepted")
	}
}
