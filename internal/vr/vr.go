package vr

import "fmt"

// Mode names a variance-reduction transform. The zero value means no
// transform (the paper's plain estimator), so existing call sites keep
// their behaviour without change.
type Mode string

const (
	// ModeNone is the plain estimator: samples feed the stopping
	// criterion untransformed.
	ModeNone Mode = ""
	// ModeAntithetic pairs replications: odd replications draw the
	// mirrored input stream of their even partner, and the criterion
	// consumes pair means.
	ModeAntithetic Mode = "antithetic"
	// ModeControlVariate subtracts the regression-scaled, centred
	// zero-delay toggle power from every general-delay sample.
	ModeControlVariate Mode = "control-variate"
)

// Modes lists the valid canonical modes.
func Modes() []Mode { return []Mode{ModeNone, ModeAntithetic, ModeControlVariate} }

// Canonical maps "none" to the zero value and returns every other
// value unchanged.
func (m Mode) Canonical() Mode {
	if m == "none" {
		return ModeNone
	}
	return m
}

// String implements fmt.Stringer; the zero value prints as "none".
func (m Mode) String() string {
	if m.Canonical() == ModeNone {
		return "none"
	}
	return string(m)
}

// Validate rejects unknown modes.
func (m Mode) Validate() error {
	switch m.Canonical() {
	case ModeNone, ModeAntithetic, ModeControlVariate:
		return nil
	}
	return fmt.Errorf("vr: unknown variance-reduction mode %q (want %q, %q or %q)",
		string(m), "none", ModeAntithetic, ModeControlVariate)
}

// ParseMode resolves a user-supplied mode string, accepting the short
// aliases "anti" and "cv" alongside the canonical names. The empty
// string and "none" parse to ModeNone.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "none":
		return ModeNone, nil
	case "anti", string(ModeAntithetic):
		return ModeAntithetic, nil
	case "cv", string(ModeControlVariate):
		return ModeControlVariate, nil
	}
	return "", fmt.Errorf("vr: unknown variance-reduction mode %q (want none, antithetic or control-variate)", s)
}

// DefaultControlCycles is the default length, in packed 64-lane
// zero-delay sweeps, of the pre-run that estimates the control-variate
// covariate mean. 4096 sweeps observe 64x4096 ~ 262k per-cycle toggle
// powers, putting the mean's standard error two orders of magnitude
// under the paper's 5% accuracy target while costing only hidden-cycle
// rates.
const DefaultControlCycles = 4096

// Spec is the user-facing variance-reduction request, carried in
// core.Options.Variance. The zero value means no transform.
type Spec struct {
	// Mode selects the transform.
	Mode Mode
	// BetaOverride, when non-nil, forces the control-variate coefficient
	// instead of regression-estimating it from phase-1 data. Forcing 0
	// disables the correction entirely — Y = X exactly, no covariate
	// mean pre-run — which is the degeneracy the property tests pin the
	// estimator to.
	BetaOverride *float64
	// ControlCycles overrides the covariate-mean pre-run length in
	// 64-lane sweeps (0 = DefaultControlCycles). Ignored outside
	// ModeControlVariate.
	ControlCycles int
}

// Validate checks the spec in isolation. reps is the effective
// replication count of the run and zeroDelay whether sampled cycles are
// observed zero-delay; both interact with the transforms (pairing needs
// an even lane count, the covariate must not equal the sample).
func (s Spec) Validate(reps int, zeroDelay bool) error {
	if err := s.Mode.Validate(); err != nil {
		return err
	}
	if s.ControlCycles < 0 {
		return fmt.Errorf("vr: negative ControlCycles %d", s.ControlCycles)
	}
	switch s.Mode.Canonical() {
	case ModeAntithetic:
		if reps < 2 || reps%2 != 0 {
			return fmt.Errorf("vr: antithetic pairing needs an even replication count >= 2, got %d", reps)
		}
	case ModeControlVariate:
		if zeroDelay {
			return fmt.Errorf("vr: control variates need general-delay sampling (under zero-delay the covariate equals the sample)")
		}
	}
	return nil
}

// Plan is a resolved transform: the mode plus the coefficients frozen
// before the sampled phase. It is pure data — it travels verbatim over
// the cluster protocol and is applied identically everywhere, keeping
// distributed runs bit-identical to single-process ones.
type Plan struct {
	// Mode is the transform in effect.
	Mode Mode `json:"mode,omitempty"`
	// Beta is the control-variate coefficient (0 outside
	// ModeControlVariate, and exactly 0 when the correction is forced
	// off).
	Beta float64 `json:"beta,omitempty"`
	// ControlMean is the covariate mean mu_C the correction centres on.
	ControlMean float64 `json:"controlMean,omitempty"`
}

// Apply transforms one sample: Y = X - Beta (C - ControlMean) under
// ModeControlVariate, X unchanged otherwise. A zero Beta returns X
// bit-exactly (no floating-point round trip), which is what makes the
// forced-zero degeneracy reproduce the plain estimator sample for
// sample.
func (p Plan) Apply(x, c float64) float64 {
	if p.Mode.Canonical() != ModeControlVariate || p.Beta == 0 {
		return x
	}
	return x - p.Beta*(c-p.ControlMean)
}

// NeedsCovariate reports whether the sampled phase must observe the
// zero-delay toggle power alongside each sample.
func (p Plan) NeedsCovariate() bool {
	return p.Mode.Canonical() == ModeControlVariate && p.Beta != 0
}

// Pairing reports whether the merge layer must average replication
// pairs before feeding the stopping criterion.
func (p Plan) Pairing() bool { return p.Mode.Canonical() == ModeAntithetic }

// Validate rejects plans no estimator could run.
func (p Plan) Validate() error { return p.Mode.Validate() }

// Label renders the plan's mode for result records: the canonical mode
// name, or "" for the plain estimator.
func (p Plan) Label() string {
	if p.Mode.Canonical() == ModeNone {
		return ""
	}
	return string(p.Mode.Canonical())
}

// PairMeans appends the means of consecutive pairs of round (which must
// have even length) to out and returns it: the criterion-ready samples
// of one antithetic round.
func PairMeans(round []float64, out []float64) []float64 {
	if len(round)%2 != 0 {
		panic(fmt.Sprintf("vr: PairMeans over odd round length %d", len(round)))
	}
	for i := 0; i < len(round); i += 2 {
		out = append(out, (round[i]+round[i+1])/2)
	}
	return out
}

// EstimateBeta returns the least-squares control-variate coefficient
// cov(x, c)/var(c) over paired observations. It returns 0 — disabling
// the correction — when fewer than two pairs exist or the covariate is
// (numerically) constant, so a degenerate calibration can never inject
// a wild coefficient.
func EstimateBeta(xs, cs []float64) float64 {
	n := len(xs)
	if n != len(cs) {
		panic(fmt.Sprintf("vr: EstimateBeta over %d samples but %d covariates", n, len(cs)))
	}
	if n < 2 {
		return 0
	}
	var mx, mc float64
	for i := 0; i < n; i++ {
		mx += xs[i]
		mc += cs[i]
	}
	mx /= float64(n)
	mc /= float64(n)
	var sxc, scc float64
	for i := 0; i < n; i++ {
		dc := cs[i] - mc
		sxc += (xs[i] - mx) * dc
		scc += dc * dc
	}
	if scc == 0 {
		return 0
	}
	return sxc / scc
}
