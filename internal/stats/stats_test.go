package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.10g, want %.10g (tol %g)", name, got, want, tol)
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	almost(t, "Phi(0)", NormalCDF(0), 0.5, 1e-15)
	almost(t, "Phi(1.96)", NormalCDF(1.959963984540054), 0.975, 1e-12)
	almost(t, "Phi(-1.96)", NormalCDF(-1.959963984540054), 0.025, 1e-12)
	almost(t, "Phi(2.5758)", NormalCDF(2.5758293035489004), 0.995, 1e-12)
	almost(t, "Phi(3)", NormalCDF(3), 0.9986501019683699, 1e-12)
}

func TestNormalQuantileKnownValues(t *testing.T) {
	almost(t, "z(0.5)", NormalQuantile(0.5), 0, 1e-12)
	almost(t, "z(0.975)", NormalQuantile(0.975), 1.959963984540054, 1e-9)
	almost(t, "z(0.995)", NormalQuantile(0.995), 2.5758293035489004, 1e-9)
	almost(t, "z(0.9)", NormalQuantile(0.9), 1.2815515655446004, 1e-9)
	almost(t, "z(0.0001)", NormalQuantile(0.0001), -3.719016485455709, 1e-8)
}

func TestNormalQuantileInvertsCDF(t *testing.T) {
	err := quick.Check(func(u float64) bool {
		p := math.Abs(math.Mod(u, 1))
		if p < 1e-10 || p > 1-1e-10 {
			return true
		}
		z := NormalQuantile(p)
		return math.Abs(NormalCDF(z)-p) < 1e-10
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNormalQuantileSymmetry(t *testing.T) {
	for _, p := range []float64{0.01, 0.1, 0.25, 0.4} {
		if d := NormalQuantile(p) + NormalQuantile(1-p); math.Abs(d) > 1e-9 {
			t.Errorf("z(%g) + z(%g) = %g, want 0", p, 1-p, d)
		}
	}
}

func TestNormalQuantilePanicsOutsideDomain(t *testing.T) {
	for _, p := range []float64{-0.5, 1.5, math.NaN()} {
		func() {
			defer func() { recover() }()
			NormalQuantile(p)
			t.Errorf("NormalQuantile(%v) did not panic", p)
		}()
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0, 0.25, 0.5, 0.75, 1} {
		almost(t, "I_x(1,1)", RegIncBeta(1, 1, x), x, 1e-12)
	}
	// I_x(2,2) = x^2(3-2x).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		almost(t, "I_x(2,2)", RegIncBeta(2, 2, x), x*x*(3-2*x), 1e-12)
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	almost(t, "symmetry", RegIncBeta(3.5, 1.25, 0.3), 1-RegIncBeta(1.25, 3.5, 0.7), 1e-12)
}

func TestStudentTCDFKnownValues(t *testing.T) {
	// With 1 dof (Cauchy): F(1) = 0.75.
	almost(t, "t1(1)", StudentTCDF(1, 1), 0.75, 1e-12)
	// Large dof approaches the normal.
	almost(t, "t1e6(1.96)", StudentTCDF(1.959963984540054, 1e6), 0.975, 1e-4)
	almost(t, "t(0)", StudentTCDF(0, 7), 0.5, 1e-15)
}

func TestStudentTQuantileKnownValues(t *testing.T) {
	// Classical table values.
	almost(t, "t(0.975,10)", StudentTQuantile(0.975, 10), 2.228138852, 1e-6)
	almost(t, "t(0.995,30)", StudentTQuantile(0.995, 30), 2.749995654, 1e-6)
	almost(t, "t(0.95,5)", StudentTQuantile(0.95, 5), 2.015048373, 1e-6)
	almost(t, "t(0.5,3)", StudentTQuantile(0.5, 3), 0, 1e-12)
	// Symmetry.
	almost(t, "t symmetry", StudentTQuantile(0.1, 12), -StudentTQuantile(0.9, 12), 1e-9)
}

func TestStudentTQuantileInvertsCDF(t *testing.T) {
	for _, nu := range []float64{1, 2, 5, 30, 200} {
		for _, p := range []float64{0.01, 0.2, 0.5, 0.8, 0.99} {
			q := StudentTQuantile(p, nu)
			almost(t, "t roundtrip", StudentTCDF(q, nu), p, 1e-9)
		}
	}
}

func TestBinomialCDF(t *testing.T) {
	// Exact small cases.
	almost(t, "Bin(2,0.5)<=0", BinomialCDF(0, 2, 0.5), 0.25, 1e-12)
	almost(t, "Bin(2,0.5)<=1", BinomialCDF(1, 2, 0.5), 0.75, 1e-12)
	almost(t, "Bin(2,0.5)<=2", BinomialCDF(2, 2, 0.5), 1, 0)
	almost(t, "Bin(10,0.3)<=3", BinomialCDF(3, 10, 0.3), 0.6496107184, 1e-9)
	if BinomialCDF(-1, 5, 0.5) != 0 {
		t.Error("CDF(-1) != 0")
	}
}

func TestBinomialCDFMatchesPMFSum(t *testing.T) {
	for _, n := range []int{1, 7, 40} {
		for _, p := range []float64{0.1, 0.5, 0.83} {
			sum := 0.0
			for k := 0; k < n; k++ {
				sum += BinomialPMF(k, n, p)
				almost(t, "pmf-sum", BinomialCDF(k, n, p), sum, 1e-10)
			}
		}
	}
}

func TestBinomialPMFEdges(t *testing.T) {
	almost(t, "pmf p=0 k=0", BinomialPMF(0, 5, 0), 1, 0)
	almost(t, "pmf p=0 k=1", BinomialPMF(1, 5, 0), 0, 0)
	almost(t, "pmf p=1 k=n", BinomialPMF(5, 5, 1), 1, 0)
	almost(t, "pmf out of range", BinomialPMF(7, 5, 0.5), 0, 0)
}

func TestDKWEpsilon(t *testing.T) {
	// eps = sqrt(ln(2/0.01)/(2*100))
	almost(t, "DKW", DKWEpsilon(100, 0.01), math.Sqrt(math.Log(200)/200), 1e-12)
	// Monotone decreasing in n.
	if DKWEpsilon(1000, 0.05) >= DKWEpsilon(100, 0.05) {
		t.Error("DKW epsilon not decreasing in n")
	}
}

func TestAccumulatorAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	var acc Accumulator
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		acc.Add(xs[i])
	}
	almost(t, "mean", acc.Mean(), Mean(xs), 1e-10)
	almost(t, "var", acc.Variance(), Variance(xs), 1e-8)
	almost(t, "stderr", acc.StdErr(), Std(xs)/math.Sqrt(500), 1e-9)
	minX, maxX := xs[0], xs[0]
	for _, x := range xs {
		minX = math.Min(minX, x)
		maxX = math.Max(maxX, x)
	}
	almost(t, "min", acc.Min(), minX, 0)
	almost(t, "max", acc.Max(), maxX, 0)
	if acc.N() != 500 {
		t.Errorf("N = %d", acc.N())
	}
}

func TestMomentsDegenerate(t *testing.T) {
	var a Accumulator
	a.Add(1)
	a.Add(1)
	if a.Mean() != 1 || a.Variance() != 0 || a.CV() != 0 {
		t.Errorf("constant data: mean %g variance %g cv %g, want 1, 0, 0", a.Mean(), a.Variance(), a.CV())
	}
	var b Accumulator
	b.Add(3)
	if b.Mean() != 3 || b.Variance() != 0 || b.StdErr() != 0 {
		t.Errorf("single sample: mean %g variance %g stderr %g, want 3, 0, 0", b.Mean(), b.Variance(), b.StdErr())
	}
}

func TestMomentsShiftInvariance(t *testing.T) {
	// The one-pass update keeps the variance invariant, to 1e-9
	// relative, under a shift three orders of magnitude above the
	// spread, and exactly invariant under negation, which negates the
	// mean.
	rng := rand.New(rand.NewSource(23))
	var a, b, c Accumulator
	for i := 0; i < 50_000; i++ {
		x := rng.ExpFloat64()
		a.Add(x)
		b.Add(x + 1000)
		c.Add(-x)
	}
	if rel := math.Abs(a.Variance()-b.Variance()) / a.Variance(); rel > 1e-9 {
		t.Errorf("variance not shift invariant: %g vs %g", a.Variance(), b.Variance())
	}
	if math.Abs(b.Mean()-a.Mean()-1000) > 1e-9 {
		t.Errorf("mean did not shift by 1000: %g vs %g", a.Mean(), b.Mean())
	}
	if c.Variance() != a.Variance() || c.Mean() != -a.Mean() {
		t.Errorf("negation: mean %g variance %g, want %g and %g", c.Mean(), c.Variance(), -a.Mean(), a.Variance())
	}
}

func TestAccumulatorReset(t *testing.T) {
	var acc Accumulator
	acc.Add(5)
	acc.Reset()
	if acc.N() != 0 || acc.Mean() != 0 || acc.Variance() != 0 {
		t.Errorf("reset accumulator not empty: %s", acc.String())
	}
}

func TestAccumulatorCV(t *testing.T) {
	var acc Accumulator
	for _, x := range []float64{9, 11, 9, 11} {
		acc.Add(x)
	}
	almost(t, "cv", acc.CV(), Std([]float64{9, 11, 9, 11})/10, 1e-12)
}

func TestMedianAndQuantiles(t *testing.T) {
	almost(t, "median odd", Median([]float64{3, 1, 2}), 2, 0)
	almost(t, "median even", Median([]float64{4, 1, 3, 2}), 2.5, 0)
	almost(t, "median empty", Median(nil), 0, 0)
	xs := []float64{1, 2, 3, 4, 5}
	almost(t, "q0", Quantile(xs, 0), 1, 0)
	almost(t, "q1", Quantile(xs, 1), 5, 0)
	almost(t, "q0.5", Quantile(xs, 0.5), 3, 0)
	almost(t, "q0.25", Quantile(xs, 0.25), 2, 0)
	almost(t, "interp", Quantile([]float64{0, 10}, 0.3), 3, 1e-12)
}

func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = rng.Float64() * 100
	}
	sort.Float64s(xs)
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0001; q += 0.01 {
		qq := math.Min(q, 1)
		v := SortedQuantile(xs, qq)
		if v < prev {
			t.Fatalf("quantile not monotone at q=%g: %g < %g", qq, v, prev)
		}
		prev = v
	}
}

func TestAutocorrelationWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	acf := Autocorrelation(xs, 5)
	almost(t, "acf[0]", acf[0], 1, 0)
	for k := 1; k <= 5; k++ {
		if math.Abs(acf[k]) > 0.03 {
			t.Errorf("white-noise acf[%d] = %g, want ~0", k, acf[k])
		}
	}
}

func TestAutocorrelationAR1(t *testing.T) {
	// AR(1) with coefficient 0.8: acf[k] ~ 0.8^k.
	rng := rand.New(rand.NewSource(13))
	xs := make([]float64, 100000)
	x := 0.0
	for i := range xs {
		x = 0.8*x + rng.NormFloat64()
		xs[i] = x
	}
	acf := Autocorrelation(xs, 3)
	for k := 1; k <= 3; k++ {
		want := math.Pow(0.8, float64(k))
		if math.Abs(acf[k]-want) > 0.03 {
			t.Errorf("AR1 acf[%d] = %g, want %g", k, acf[k], want)
		}
	}
}

func TestAutocorrelationConstant(t *testing.T) {
	acf := Autocorrelation([]float64{5, 5, 5, 5, 5}, 2)
	if acf[0] != 1 || acf[1] != 0 || acf[2] != 0 {
		t.Errorf("constant acf = %v", acf)
	}
}

func TestMeanVarianceEdgeCases(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/singleton edge cases wrong")
	}
}
