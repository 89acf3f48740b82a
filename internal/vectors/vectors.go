package vectors

import (
	"fmt"
	"math/rand"
)

// Source produces one input pattern per clock cycle.
type Source interface {
	// Next fills dst with the next pattern. len(dst) must equal Width().
	Next(dst []bool)
	// Width returns the pattern width the source was built for.
	Width() int
	// Name identifies the source in reports.
	Name() string
}

// IID emits patterns whose bits are mutually independent Bernoulli
// variables: bit i is 1 with probability P[i].
type IID struct {
	p    []float64
	rng  *rand.Rand
	seed int64
	anti bool
}

// NewIID builds an i.i.d. source of the given width where every bit has
// signal probability p.
func NewIID(width int, p float64, seed int64) *IID {
	ps := make([]float64, width)
	for i := range ps {
		ps[i] = p
	}
	return NewIIDPerBit(ps, seed)
}

// NewIIDPerBit builds an i.i.d. source with a per-bit probability vector.
func NewIIDPerBit(p []float64, seed int64) *IID {
	cp := append([]float64(nil), p...)
	for i, v := range cp {
		if v < 0 || v > 1 {
			panic(fmt.Sprintf("vectors: probability p[%d]=%g out of [0,1]", i, v))
		}
	}
	return &IID{p: cp, rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Next implements Source.
func (s *IID) Next(dst []bool) {
	for i := range dst {
		u := s.rng.Float64()
		if s.anti {
			u = 1 - u
		}
		dst[i] = u < s.p[i]
	}
}

// Width implements Source.
func (s *IID) Width() int { return len(s.p) }

// Name implements Source.
func (s *IID) Name() string { return antiName("iid", s.anti) }

// antithetic implements the mirroring hook (see Antithetic).
func (s *IID) antithetic() Source {
	return &IID{p: s.p, rng: rand.New(rand.NewSource(s.seed)), seed: s.seed, anti: !s.anti}
}

// LagCorrelated emits per-bit two-state Markov chains: each bit keeps its
// previous value in a way that produces stationary probability P and
// lag-1 autocorrelation Rho. For a symmetric two-state chain with
// stationary probability p, the transition probabilities that realize
// autocorrelation rho are
//
//	P(1->1) = p + rho*(1-p),   P(0->1) = p*(1-rho).
//
// rho must lie in [0, 1); rho=0 reduces to IID.
type LagCorrelated struct {
	p, rho float64
	state  []bool
	first  bool
	rng    *rand.Rand
	seed   int64
	anti   bool
}

// NewLagCorrelated builds a temporally correlated source.
func NewLagCorrelated(width int, p, rho float64, seed int64) *LagCorrelated {
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("vectors: probability %g out of [0,1]", p))
	}
	if rho < 0 || rho >= 1 {
		panic(fmt.Sprintf("vectors: lag-1 correlation %g out of [0,1)", rho))
	}
	return &LagCorrelated{
		p: p, rho: rho,
		state: make([]bool, width),
		first: true,
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
	}
}

// uniform draws the next underlying uniform, mirrored when the source
// is an antithetic twin.
func (s *LagCorrelated) uniform() float64 {
	u := s.rng.Float64()
	if s.anti {
		u = 1 - u
	}
	return u
}

// Next implements Source.
func (s *LagCorrelated) Next(dst []bool) {
	if s.first {
		for i := range s.state {
			s.state[i] = s.uniform() < s.p
		}
		s.first = false
	} else {
		p11 := s.p + s.rho*(1-s.p)
		p01 := s.p * (1 - s.rho)
		for i := range s.state {
			if s.state[i] {
				s.state[i] = s.uniform() < p11
			} else {
				s.state[i] = s.uniform() < p01
			}
		}
	}
	copy(dst, s.state)
}

// Width implements Source.
func (s *LagCorrelated) Width() int { return len(s.state) }

// Name implements Source.
func (s *LagCorrelated) Name() string {
	return antiName(fmt.Sprintf("lag1(p=%.2f,rho=%.2f)", s.p, s.rho), s.anti)
}

// antithetic implements the mirroring hook (see Antithetic).
func (s *LagCorrelated) antithetic() Source {
	return &LagCorrelated{
		p: s.p, rho: s.rho,
		state: make([]bool, len(s.state)),
		first: true,
		rng:   rand.New(rand.NewSource(s.seed)),
		seed:  s.seed,
		anti:  !s.anti,
	}
}

// Rho returns the configured lag-1 autocorrelation.
func (s *LagCorrelated) Rho() float64 { return s.rho }

// Spatial emits patterns where groups of bits share an underlying random
// driver, creating spatial correlation: bit i equals the group bit with
// probability 1-flip, else its complement. Groups of size 1 degenerate to
// i.i.d. bits.
type Spatial struct {
	width     int
	groupSize int
	p, flip   float64
	rng       *rand.Rand
	seed      int64
	anti      bool
}

// NewSpatial builds a spatially correlated source: bits are partitioned
// into consecutive groups of groupSize bits driven by one Bernoulli(p)
// variable, independently re-drawn each cycle; each bit then flips with
// probability flip, which tunes the within-group correlation strength.
func NewSpatial(width, groupSize int, p, flip float64, seed int64) *Spatial {
	if groupSize < 1 {
		panic("vectors: groupSize must be >= 1")
	}
	if p < 0 || p > 1 || flip < 0 || flip > 0.5 {
		panic(fmt.Sprintf("vectors: bad parameters p=%g flip=%g", p, flip))
	}
	return &Spatial{width: width, groupSize: groupSize, p: p, flip: flip,
		rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// uniform draws the next underlying uniform, mirrored when the source
// is an antithetic twin.
func (s *Spatial) uniform() float64 {
	u := s.rng.Float64()
	if s.anti {
		u = 1 - u
	}
	return u
}

// Next implements Source.
func (s *Spatial) Next(dst []bool) {
	for g := 0; g < s.width; g += s.groupSize {
		v := s.uniform() < s.p
		end := g + s.groupSize
		if end > s.width {
			end = s.width
		}
		for i := g; i < end; i++ {
			b := v
			if s.uniform() < s.flip {
				b = !b
			}
			dst[i] = b
		}
	}
}

// Width implements Source.
func (s *Spatial) Width() int { return s.width }

// Name implements Source.
func (s *Spatial) Name() string {
	return antiName(fmt.Sprintf("spatial(g=%d,p=%.2f,flip=%.2f)", s.groupSize, s.p, s.flip), s.anti)
}

// antithetic implements the mirroring hook (see Antithetic).
func (s *Spatial) antithetic() Source {
	return &Spatial{width: s.width, groupSize: s.groupSize, p: s.p, flip: s.flip,
		rng: rand.New(rand.NewSource(s.seed)), seed: s.seed, anti: !s.anti}
}

// Trace replays a fixed list of patterns, wrapping around at the end.
// It supports reproducing a measured workload, and makes simulator tests
// deterministic without a RNG.
type Trace struct {
	patterns [][]bool
	pos      int
}

// NewTrace builds a replay source. Each pattern must have equal width;
// the slice must be non-empty. Patterns are copied.
func NewTrace(patterns [][]bool) (*Trace, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("vectors: empty trace")
	}
	w := len(patterns[0])
	cp := make([][]bool, len(patterns))
	for i, p := range patterns {
		if len(p) != w {
			return nil, fmt.Errorf("vectors: trace pattern %d has width %d, want %d", i, len(p), w)
		}
		cp[i] = append([]bool(nil), p...)
	}
	return &Trace{patterns: cp}, nil
}

// Next implements Source.
func (t *Trace) Next(dst []bool) {
	copy(dst, t.patterns[t.pos])
	t.pos++
	if t.pos == len(t.patterns) {
		t.pos = 0
	}
}

// Width implements Source.
func (t *Trace) Width() int { return len(t.patterns[0]) }

// Name implements Source.
func (t *Trace) Name() string { return fmt.Sprintf("trace(%d)", len(t.patterns)) }

// Len returns the number of patterns before the trace wraps.
func (t *Trace) Len() int { return len(t.patterns) }

// Factory builds an independent Source for a given run seed. Estimation
// procedures that perform many independent runs (Table 2) require fresh
// randomness per run while staying reproducible; a Factory captures the
// source configuration and defers seeding.
//
// The parallel estimators call a Factory only on their caller's
// goroutine, but step the Sources it returns on several goroutines at
// once, each Source on one goroutine at a time: replication shards run
// in parallel, and the replications warm up while phase 1 runs. So
// Sources from one Factory must not share mutable state.
type Factory func(seed int64) Source

// IIDFactory returns a Factory of i.i.d. Bernoulli(p) sources, the
// paper's experimental input model (p = 0.5).
func IIDFactory(width int, p float64) Factory {
	return func(seed int64) Source { return NewIID(width, p, seed) }
}

// LagCorrelatedFactory returns a Factory of lag-1 Markov sources.
func LagCorrelatedFactory(width int, p, rho float64) Factory {
	return func(seed int64) Source { return NewLagCorrelated(width, p, rho, seed) }
}

// mirrorable is implemented by the stochastic sources, which can derive
// an antithetic twin from their stored configuration and seed.
type mirrorable interface {
	antithetic() Source
}

// antiName decorates a source name for its antithetic twin.
func antiName(base string, anti bool) string {
	if anti {
		return "antithetic(" + base + ")"
	}
	return base
}

// Antithetic returns the antithetic twin of a stochastic source: a
// fresh source over the same configuration and seed whose underlying
// uniform draws are mirrored (every u replaced by 1-u). Because each
// emitted bit is a threshold test u < p, the twin keeps the original's
// exact distribution — Bernoulli marginals, lag-1 chains and spatial
// groups alike — while being maximally negatively correlated with it
// draw for draw: for p = 0.5 the twin's stream is the bitwise
// complement of the original's (up to the measure-zero event u = 0.5).
//
// The twin restarts from the seed, so Antithetic must be called on a
// freshly built source for the pairing to line up; the estimator builds
// per-replication sources exactly once, which satisfies this by
// construction. Mirroring a twin yields the plain source again.
// Deterministic sources (Trace) have no twin and return an error.
func Antithetic(s Source) (Source, error) {
	m, ok := s.(mirrorable)
	if !ok {
		return nil, fmt.Errorf("vectors: source %q cannot be mirrored for antithetic sampling", s.Name())
	}
	return m.antithetic(), nil
}
