package main

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/service"
)

// result is the part of an estimate that the determinism contract
// fixes: a given request yields these values bit for bit on every entry
// point, backend and worker count.
type result struct {
	Power      float64  `json:"power"`
	HalfWidth  float64  `json:"halfWidth"`
	SampleSize int      `json:"sampleSize"`
	Interval   int      `json:"interval"`
	Hidden     uint64   `json:"hidden"`
	Sampled    uint64   `json:"sampled"`
	Converged  bool     `json:"converged"`
	Cached     bool     `json:"cached,omitempty"`  // served from the result cache
	Dynamic    *float64 `json:"dynamic,omitempty"` // breakdown: total dynamic power
}

func fromCore(r core.Result) result {
	res := result{
		Power: r.Power, HalfWidth: r.HalfWidth, SampleSize: r.SampleSize, Interval: r.Interval,
		Hidden: r.HiddenCycles, Sampled: r.SampledCycles, Converged: r.Converged,
	}
	if r.Breakdown != nil {
		res.Dynamic = &r.Breakdown.Dynamic
	}
	return res
}

func fromView(v *service.ResultView) result {
	res := result{
		Power: v.Power, HalfWidth: v.HalfWidth, SampleSize: v.SampleSize, Interval: v.Interval,
		Hidden: v.HiddenCycles, Sampled: v.SampledCycles, Converged: v.Converged, Cached: v.Cached,
	}
	if v.Breakdown != nil {
		res.Dynamic = &v.Breakdown.Dynamic
	}
	return res
}

// digest renders the deterministic fields, floats as their IEEE-754 bits.
func (r result) digest() string {
	return fmt.Sprintf("%016x/%016x/%d/%d/%d/%d/%t", math.Float64bits(r.Power), math.Float64bits(r.HalfWidth),
		r.SampleSize, r.Interval, r.Hidden, r.Sampled, r.Converged)
}

// spec returns the request's relative-error target.
func spec(req service.JobRequest) float64 { return req.Options.Options().Spec.RelErr }

// failure returns why the op's result cannot be accepted on its own
// terms, or "" when it can: it must exist, have converged, and meet its
// own accuracy specification.
func (o *op) failure() string {
	switch r := o.Res; {
	case o.Err != "":
		return o.Err
	case !r.Converged:
		return "not converged"
	case !(r.Power > 0):
		return fmt.Sprintf("power %g", r.Power)
	case r.HalfWidth > spec(o.Req)*r.Power*(1+1e-12):
		return fmt.Sprintf("half-width %.4g%% above the %.4g%% spec", 100*r.HalfWidth/r.Power, 100*spec(o.Req))
	case r.Dynamic != nil && math.Abs(*r.Dynamic-r.Power) > 1e-9*r.Power:
		return fmt.Sprintf("breakdown dynamic total %g differs from the estimate %g", *r.Dynamic, r.Power)
	}
	return ""
}

// accuracy is the error of the fresh estimates against the references.
type accuracy struct {
	RelErr    []float64 // |P - Pref| / Pref, one per fresh estimate
	SpecMiss  int       // estimates whose error exceeds their relErr spec
	Estimates int
}

// checkOps verifies every op and returns, by op ID, why each failed op
// failed. Beyond each op's own checks, an estimate may not be further
// from the reference than twice its spec plus four reference standard
// errors (at the paper's 0.99 confidence that is more than five standard
// deviations of the estimator), and identical requests must give
// bit-identical results, whether run twice or served from the result
// cache.
func checkOps(ops []*op, refs refTable) (map[int]string, accuracy, error) {
	var acc accuracy
	bad := make(map[int]string)
	first := make(map[string]*op)
	for _, o := range ops {
		why := o.failure()
		if why == "" {
			ref, err := refs.lookup(o.Req)
			if err != nil {
				return nil, acc, err
			}
			e := math.Abs(o.Res.Power-ref.Power) / ref.Power
			if !o.Res.Cached {
				acc.Estimates++
				acc.RelErr = append(acc.RelErr, e)
				if e > spec(o.Req) {
					acc.SpecMiss++
				}
			}
			if lim := 2*spec(o.Req) + 4*ref.RelStdErr; e > lim {
				why = fmt.Sprintf("%.4g%% from the reference, limit %.4g%%", 100*e, 100*lim)
			}
		}
		if why == "" {
			if prev, ok := first[o.key()]; !ok {
				first[o.key()] = o
			} else if prev.Res.digest() != o.Res.digest() {
				why = fmt.Sprintf("result %s differs from op %d's %s for the same request", o.Res.digest(), prev.ID, prev.Res.digest())
			}
		}
		if why != "" {
			bad[o.ID] = why
		}
	}
	return bad, acc, nil
}
