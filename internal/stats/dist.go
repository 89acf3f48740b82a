package stats

import (
	"fmt"
	"math"
)

// NormalCDF returns Phi(z), the standard normal distribution function.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// NormalQuantile returns Phi^-1(p) for p in (0,1). It uses Acklam's
// rational approximation refined by one Halley step, giving ~1e-15
// relative accuracy over the full range.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		panic(fmt.Sprintf("stats: NormalQuantile(%v) outside (0,1)", p))
	}
	// Coefficients of Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement step.
	e := NormalCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// LogBeta returns ln B(a,b) = ln Gamma(a) + ln Gamma(b) - ln Gamma(a+b).
func LogBeta(a, b float64) float64 {
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	return la + lb - lab
}

// RegIncBeta returns the regularized incomplete beta function I_x(a, b)
// for a,b > 0 and x in [0,1], evaluated with the continued fraction of
// Lentz's method (the Numerical-Recipes betacf scheme).
func RegIncBeta(a, b, x float64) float64 {
	if x < 0 || x > 1 || math.IsNaN(x) {
		panic(fmt.Sprintf("stats: RegIncBeta x=%v outside [0,1]", x))
	}
	if a <= 0 || b <= 0 {
		panic(fmt.Sprintf("stats: RegIncBeta needs a,b > 0, got a=%v b=%v", a, b))
	}
	if x == 0 {
		return 0
	}
	if x == 1 {
		return 1
	}
	front := math.Exp(a*math.Log(x) + b*math.Log(1-x) - LogBeta(a, b))
	// Use the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) to keep the continued
	// fraction in its rapidly converging region.
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - math.Exp(b*math.Log(1-x)+a*math.Log(x)-LogBeta(a, b))*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction for the incomplete beta
// function by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-15
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			return h
		}
	}
	// Convergence is proven for the restricted domain we call it on; hit
	// the iteration cap only for pathological inputs.
	return h
}

// StudentTCDF returns P(T <= t) for Student's t with nu degrees of freedom.
func StudentTCDF(t, nu float64) float64 {
	if nu <= 0 {
		panic(fmt.Sprintf("stats: StudentTCDF nu=%v must be positive", nu))
	}
	if t == 0 {
		return 0.5
	}
	x := nu / (nu + t*t)
	p := 0.5 * RegIncBeta(nu/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// StudentTQuantile returns the p-quantile of Student's t distribution
// with nu degrees of freedom, via monotone bisection on the CDF seeded by
// the normal quantile. Accuracy ~1e-12, far below statistical noise.
func StudentTQuantile(p, nu float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("stats: StudentTQuantile(%v) outside (0,1)", p))
	}
	if nu <= 0 {
		panic(fmt.Sprintf("stats: StudentTQuantile nu=%v must be positive", nu))
	}
	if p == 0.5 {
		return 0
	}
	// Bracket the root around the normal approximation.
	z := NormalQuantile(p)
	scale := math.Sqrt(nu / math.Max(nu-2, 0.5))
	lo, hi := z*scale-10, z*scale+10
	for StudentTCDF(lo, nu) > p {
		lo *= 2
	}
	for StudentTCDF(hi, nu) < p {
		hi *= 2
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if StudentTCDF(mid, nu) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+math.Abs(hi)) {
			break
		}
	}
	return 0.5 * (lo + hi)
}

// BinomialCDF returns P(X <= k) for X ~ Binomial(n, p), computed through
// the incomplete beta function to stay accurate for large n.
func BinomialCDF(k, n int, p float64) float64 {
	if n < 0 || p < 0 || p > 1 {
		panic(fmt.Sprintf("stats: BinomialCDF bad arguments n=%d p=%v", n, p))
	}
	if k < 0 {
		return 0
	}
	if k >= n {
		return 1
	}
	return RegIncBeta(float64(n-k), float64(k+1), 1-p)
}

// BinomialPMF returns P(X = k) for X ~ Binomial(n, p).
func BinomialPMF(k, n int, p float64) float64 {
	if k < 0 || k > n {
		return 0
	}
	if p == 0 {
		if k == 0 {
			return 1
		}
		return 0
	}
	if p == 1 {
		if k == n {
			return 1
		}
		return 0
	}
	ln, _ := math.Lgamma(float64(n + 1))
	lk, _ := math.Lgamma(float64(k + 1))
	lnk, _ := math.Lgamma(float64(n - k + 1))
	return math.Exp(ln - lk - lnk + float64(k)*math.Log(p) + float64(n-k)*math.Log(1-p))
}

// DKWEpsilon returns the half-width of the Dvoretzky–Kiefer–Wolfowitz
// uniform confidence band for an empirical CDF of n samples at confidence
// 1-delta: eps = sqrt(ln(2/delta) / (2n)). The true CDF lies within
// +/-eps of the empirical CDF everywhere with probability >= 1-delta.
func DKWEpsilon(n int, delta float64) float64 {
	if n <= 0 || delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("stats: DKWEpsilon bad arguments n=%d delta=%v", n, delta))
	}
	return math.Sqrt(math.Log(2/delta) / (2 * float64(n)))
}
