package stats

import (
	"fmt"
	"math"
	"sort"
)

// Accumulator computes running mean and variance with the one-pass
// Welford update, plus min/max, without storing the samples.
type Accumulator struct {
	n          int
	mean       float64
	m2         float64
	min, max   float64
	hasSamples bool
}

// Add incorporates one observation.
func (a *Accumulator) Add(x float64) {
	n1 := float64(a.n)
	a.n++
	n := float64(a.n)
	d := x - a.mean
	dn := d / n
	t1 := d * dn * n1
	a.mean += dn
	a.m2 += t1
	if !a.hasSamples || x < a.min {
		a.min = x
	}
	if !a.hasSamples || x > a.max {
		a.max = x
	}
	a.hasSamples = true
}

// Reset clears the accumulator.
func (a *Accumulator) Reset() { *a = Accumulator{} }

// N returns the number of observations.
func (a *Accumulator) N() int { return a.n }

// Mean returns the sample mean (0 for an empty accumulator).
func (a *Accumulator) Mean() float64 { return a.mean }

// Variance returns the unbiased sample variance (0 for n < 2).
func (a *Accumulator) Variance() float64 {
	if a.n < 2 {
		return 0
	}
	return a.m2 / float64(a.n-1)
}

// Std returns the sample standard deviation.
func (a *Accumulator) Std() float64 { return math.Sqrt(a.Variance()) }

// StdErr returns the standard error of the mean, s/sqrt(n).
func (a *Accumulator) StdErr() float64 {
	if a.n == 0 {
		return 0
	}
	return a.Std() / math.Sqrt(float64(a.n))
}

// CV returns the coefficient of variation s/|mean| (0 if the mean is 0).
func (a *Accumulator) CV() float64 {
	if a.mean == 0 {
		return 0
	}
	return a.Std() / math.Abs(a.mean)
}

// Min returns the smallest observation (0 for an empty accumulator).
func (a *Accumulator) Min() float64 { return a.min }

// Max returns the largest observation (0 for an empty accumulator).
func (a *Accumulator) Max() float64 { return a.max }

// String summarizes the accumulator.
func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.6g std=%.6g min=%.6g max=%.6g",
		a.n, a.Mean(), a.Std(), a.min, a.max)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for n < 2).
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// Std returns the sample standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the sample median (average of middle pair for even n).
// It copies and sorts; callers in hot paths should use SortedMedian.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return SortedMedian(cp)
}

// SortedMedian returns the median of an already-sorted slice.
func SortedMedian(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return 0.5 * (sorted[n/2-1] + sorted[n/2])
}

// Quantile returns the q-quantile of xs using the common "type 7" linear
// interpolation (the default of R and NumPy). q must be in [0,1].
func Quantile(xs []float64, q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: Quantile(%v) outside [0,1]", q))
	}
	if len(xs) == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return SortedQuantile(cp, q)
}

// SortedQuantile is Quantile over an already-sorted slice.
func SortedQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Autocorrelation returns the sample autocorrelation function of xs at
// lags 0..maxLag (acf[0] == 1). The biased estimator (dividing by n) is
// used, as is standard for correlograms. A constant series returns all
// zeros past lag 0.
func Autocorrelation(xs []float64, maxLag int) []float64 {
	n := len(xs)
	if maxLag >= n {
		maxLag = n - 1
	}
	if maxLag < 0 {
		return nil
	}
	acf := make([]float64, maxLag+1)
	m := Mean(xs)
	var c0 float64
	for _, x := range xs {
		d := x - m
		c0 += d * d
	}
	acf[0] = 1
	if c0 == 0 {
		return acf
	}
	for k := 1; k <= maxLag; k++ {
		var ck float64
		for i := 0; i+k < n; i++ {
			ck += (xs[i] - m) * (xs[i+k] - m)
		}
		acf[k] = ck / c0
	}
	return acf
}
