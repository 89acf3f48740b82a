package main

import (
	"strings"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([...], n=4) in Python 3.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "latency_p50_s", Better: "lower", Bound: 0.1}
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		head []float64
		want string
	}{
		{scale(1.2), "REGRESSION"},
		{scale(0.8), "gain"},
		{scale(1.05), "same"},
		{base, "same"},
	} {
		if got := judge(lat, base, c.head).verdict; !strings.HasPrefix(got, c.want) {
			t.Errorf("head %v: verdict %q, want %q", c.head, got, c.want)
		}
	}
	noisy := []float64{1, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1}
	if got := judge(lat, noisy, scale(1.05)).verdict; !strings.HasPrefix(got, "unresolved") {
		t.Errorf("noisy baseline: verdict %q, want unresolved", got)
	}
}
