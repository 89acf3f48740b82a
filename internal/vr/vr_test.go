package vr

import (
	"math"
	"math/rand"
	"testing"
)

func TestParseMode(t *testing.T) {
	cases := []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"", ModeNone, true},
		{"none", ModeNone, true},
		{"anti", ModeAntithetic, true},
		{"antithetic", ModeAntithetic, true},
		{"cv", ModeControlVariate, true},
		{"control-variate", ModeControlVariate, true},
		{"bogus", "", false},
	}
	for _, c := range cases {
		got, err := ParseMode(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("ParseMode(%q) accepted", c.in)
		}
	}
	if ModeNone.String() != "none" || Mode("none").Canonical() != ModeNone {
		t.Error("none canonicalization broken")
	}
}

func TestSpecValidate(t *testing.T) {
	if err := (Spec{}).Validate(64, false); err != nil {
		t.Errorf("zero spec invalid: %v", err)
	}
	if err := (Spec{Mode: "bogus"}).Validate(64, false); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := (Spec{Mode: ModeAntithetic}).Validate(15, false); err == nil {
		t.Error("antithetic with odd replication count accepted")
	}
	if err := (Spec{Mode: ModeAntithetic}).Validate(1, false); err == nil {
		t.Error("antithetic with one replication accepted")
	}
	if err := (Spec{Mode: ModeAntithetic}).Validate(16, true); err != nil {
		t.Errorf("antithetic under zero-delay rejected: %v", err)
	}
	if err := (Spec{Mode: ModeControlVariate}).Validate(64, true); err == nil {
		t.Error("control variates under zero-delay accepted (covariate equals sample)")
	}
	if err := (Spec{Mode: ModeControlVariate, ControlCycles: -1}).Validate(64, false); err == nil {
		t.Error("negative ControlCycles accepted")
	}
}

// TestPlanApplyDegeneracy: a zero coefficient returns the sample
// bit-exactly — the identity the forced-zero property tests rely on.
func TestPlanApplyDegeneracy(t *testing.T) {
	plain := Plan{}
	cv0 := Plan{Mode: ModeControlVariate, Beta: 0, ControlMean: 123}
	anti := Plan{Mode: ModeAntithetic}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		x, c := rng.NormFloat64(), rng.NormFloat64()
		if plain.Apply(x, c) != x || cv0.Apply(x, c) != x || anti.Apply(x, c) != x {
			t.Fatalf("Apply not identity for x=%v c=%v", x, c)
		}
	}
	if cv0.NeedsCovariate() {
		t.Error("zero-beta plan claims to need a covariate")
	}
	if !(Plan{Mode: ModeControlVariate, Beta: 0.5}).NeedsCovariate() {
		t.Error("live control-variate plan claims no covariate")
	}
}

// TestPlanApplyCentred: the correction vanishes in expectation — with
// the covariate at its mean the sample passes through unchanged.
func TestPlanApplyCentred(t *testing.T) {
	p := Plan{Mode: ModeControlVariate, Beta: 2.5, ControlMean: 7}
	if got := p.Apply(3, 7); got != 3 {
		t.Fatalf("Apply(3, mean) = %v, want 3", got)
	}
	if got := p.Apply(3, 8); got != 3-2.5 {
		t.Fatalf("Apply(3, mean+1) = %v, want %v", got, 3-2.5)
	}
}

func TestPairMeans(t *testing.T) {
	got := PairMeans([]float64{1, 3, 10, 20}, nil)
	if len(got) != 2 || got[0] != 2 || got[1] != 15 {
		t.Fatalf("PairMeans = %v", got)
	}
	// Identical pair members pass through exactly.
	if got := PairMeans([]float64{0.1, 0.1}, nil); got[0] != 0.1 {
		t.Fatalf("degenerate pair mean %v, want 0.1", got[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("odd-length round accepted")
		}
	}()
	PairMeans([]float64{1, 2, 3}, nil)
}

// TestEstimateBeta: recovers the slope on synthetic linear data and is
// guarded against degenerate inputs.
func TestEstimateBeta(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 10000
	xs, cs := make([]float64, n), make([]float64, n)
	for i := range xs {
		c := rng.NormFloat64()
		cs[i] = c
		xs[i] = 5 + 1.75*c + 0.1*rng.NormFloat64()
	}
	if beta := EstimateBeta(xs, cs); math.Abs(beta-1.75) > 0.02 {
		t.Fatalf("beta = %v, want ~1.75", beta)
	}
	if beta := EstimateBeta([]float64{1}, []float64{2}); beta != 0 {
		t.Fatalf("single-pair beta = %v, want 0", beta)
	}
	if beta := EstimateBeta([]float64{1, 2, 3}, []float64{4, 4, 4}); beta != 0 {
		t.Fatalf("constant-covariate beta = %v, want 0", beta)
	}
}

// TestPairMeanVariance is the statistics behind antithetic pairing in
// miniature: pair means of negatively correlated samples have less
// variance than two independent samples' mean.
func TestPairMeanVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 20000
	varOf := func(xs []float64) float64 {
		var m float64
		for _, x := range xs {
			m += x
		}
		m /= float64(len(xs))
		var v float64
		for _, x := range xs {
			v += (x - m) * (x - m)
		}
		return v / float64(len(xs)-1)
	}
	indep, anti := make([]float64, 0, n), make([]float64, 0, n)
	for i := 0; i < n; i++ {
		u, w := rng.Float64(), rng.Float64()
		indep = append(indep, PairMeans([]float64{u, w}, nil)...)
		anti = append(anti, PairMeans([]float64{u, 1 - u}, nil)...)
	}
	if va, vi := varOf(anti), varOf(indep); va >= vi/10 {
		t.Fatalf("antithetic pair-mean variance %v not far below independent %v", va, vi)
	}
}
