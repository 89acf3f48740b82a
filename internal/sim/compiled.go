package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/compile"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// MaxLanes is the width of one lane word: the 64 replications a uint64
// holds, one per bit. It is the unit of the lane layout: core.Ranges
// cuts every job at rows of MaxLanes lanes, and a job's
// default replication count and the control-mean pre-run are one word
// wide. It is also the widest PackedSession.
const MaxLanes = 64

// CompiledMaxLanes is the widest compiled session: 8 words of lanes per
// register row, so one pass over the program advances up to 512
// replications. Wider rows amortize the per-instruction dispatch cost
// over more lanes while keeping an s1494-sized register file inside L2.
const CompiledMaxLanes = 8 * MaxLanes

// CompiledSession drives up to CompiledMaxLanes independent
// replications through clock cycles with the compiled word-level
// programs of internal/compile, instead of interpreting the CSR netlist
// gate-by-gate. It is the one lane engine every parallel estimate runs
// on, and its per-lane observations are bit-identical to those of its
// oracle PackedSession (and hence to ScalarSession):
//
//   - Hidden cycles execute the Step program, which computes only the
//     next latch state — dead fanout, BUF chains and fused gate chains
//     cost nothing. Full node values are left stale and recomputed
//     lazily (settling is a pure function of the current inputs and
//     latch state, so nothing is lost by deferring it).
//   - Sampled cycles execute the observation-exact Full program: one
//     register row per node, so the weighted toggle diff of a
//     zero-delay session — accumulated in node-index order per lane,
//     exactly like PackedSession — and the lane engine of a
//     general-delay one (eventLanes, built from the delay table, one
//     Cycle per 64-lane word) see precisely the interpreted values.
//
// Lanes are packed row-major: lane k lives in bit k%64 of word k/64 of
// every row, and all rows are w = ceil(lanes/64) words wide.
type CompiledSession struct {
	c     *netlist.Circuit
	unit  *compile.Unit
	srcs  []vectors.Source
	lanes int
	w     int      // words per register row
	masks []uint64 // per-word active-lane masks

	full    []uint64 // Full register file: NumNodes rows (settled iff fresh)
	oldFull []uint64 // previous settled rows, for zero-delay toggle diffs
	step    []uint64 // Step register file
	fresh   bool     // full holds the settled values of the current (pins, q)

	pins  []uint64 // one row per input
	q     []uint64 // one row per latch
	nextQ []uint64
	buf   []uint64 // next packed pattern under construction

	laneBuf []bool   // one lane's pattern, as drawn from its source
	accBuf  []uint64 // word-local input accumulators (one per input)

	// engine observes the sampled cycles of a general-delay session;
	// it is nil for a zero-delay one, whose samples are the toggle diff.
	engine *eventLanes
	// One word of the advanced-but-unapplied state, the lane engine's
	// operands: settled values, new pins, new latch state.
	wvals []uint64
	wpins []uint64
	wq    []uint64
	sums  [64]float64

	// counts, when installed via AccumulateToggles, receives per-node
	// transition counts summed over all active lanes of every sampled
	// cycle.
	counts []uint64

	// HiddenCycles and SampledCycles count per-replication cycles, the
	// same accounting as PackedSession and the serial sessions.
	HiddenCycles  uint64
	SampledCycles uint64
}

// NewCompiledSession builds a compiled session over 1..CompiledMaxLanes
// per-lane sources, compiling the circuit on first use (the Unit is
// cached on the circuit). Its sampled cycles are observed event-driven
// under the delay table dt, or, when dt is nil, by the zero-delay
// toggle diff. Every lane starts in the all-zero latch state with an
// all-zero input pattern, settled — the same reset state as the packed
// and serial sessions.
func NewCompiledSession(c *netlist.Circuit, dt *delay.Table, srcs []vectors.Source) *CompiledSession {
	if len(srcs) == 0 || len(srcs) > CompiledMaxLanes {
		panic(fmt.Sprintf("sim: NewCompiledSession needs 1..%d sources, got %d", CompiledMaxLanes, len(srcs)))
	}
	for k, src := range srcs {
		if src.Width() != len(c.Inputs) {
			panic(fmt.Sprintf("sim: lane %d source width %d, circuit has %d inputs",
				k, src.Width(), len(c.Inputs)))
		}
	}
	lanes := len(srcs)
	w := (lanes + 63) / 64
	masks := make([]uint64, w)
	for j := range masks {
		masks[j] = ^uint64(0)
	}
	if r := lanes & 63; r != 0 {
		masks[w-1] = 1<<uint(r) - 1
	}
	u := compile.For(c)
	s := &CompiledSession{
		c:       c,
		unit:    u,
		srcs:    append([]vectors.Source(nil), srcs...),
		lanes:   lanes,
		w:       w,
		masks:   masks,
		full:    make([]uint64, u.Full.Slots*w),
		oldFull: make([]uint64, u.Full.Slots*w),
		step:    make([]uint64, u.Step.Slots*w),
		pins:    make([]uint64, len(c.Inputs)*w),
		q:       make([]uint64, len(c.Latches)*w),
		nextQ:   make([]uint64, len(c.Latches)*w),
		buf:     make([]uint64, len(c.Inputs)*w),
		laneBuf: make([]bool, len(c.Inputs)),
		accBuf:  make([]uint64, len(c.Inputs)),
	}
	// Constant rows are written once per register file; Exec never
	// touches them, and the full/oldFull swap exchanges two files that
	// both carry them.
	u.Full.InitConsts(s.full, w)
	u.Full.InitConsts(s.oldFull, w)
	u.Step.InitConsts(s.step, w)
	s.settleFull()
	if dt != nil {
		s.observeWith(newEventLanes(newCalendar(c, dt)))
	}
	return s
}

// observeWith makes e the lane engine that observes the sampled cycles.
func (s *CompiledSession) observeWith(e *eventLanes) {
	s.engine = e
	s.wvals = make([]uint64, s.c.NumNodes())
	s.wpins = make([]uint64, len(s.c.Inputs))
	s.wq = make([]uint64, len(s.c.Latches))
}

// execProgram runs one program over vals. The telemetry updates are
// per pass, never per instruction: with no registry installed they cost
// one atomic pointer load and a branch, which is what keeps disabled
// observability under 1% of the duty cycle.
func (s *CompiledSession) execProgram(p *compile.Program, vals []uint64) {
	p.Exec(vals, s.w)
	if m := compiledMet.Load(); m != nil {
		m.Execs.Inc()
		m.Insts.Add(uint64(p.NumInsts()))
		m.LaneSteps.Add(uint64(s.lanes))
	}
}

// AccumulateToggles installs dst (len NumNodes, or nil to disable) as
// the per-node transition-count accumulator, with the same semantics as
// PackedSession.AccumulateToggles: zero-delay sampled steps count from
// the Full-file row diff (one popcount per node word, summed across the
// row's words), general-delay steps count from the lane engine.
// Counts are integers, so they are bit-identical to the packed backend's
// regardless of lane width or word layout.
func (s *CompiledSession) AccumulateToggles(dst []uint64) {
	if dst != nil && len(dst) != s.c.NumNodes() {
		panic(fmt.Sprintf("sim: AccumulateToggles length %d, want %d", len(dst), s.c.NumNodes()))
	}
	s.counts = dst
}

// CycleCounts returns the per-replication hidden and sampled cycle
// counts accumulated so far.
func (s *CompiledSession) CycleCounts() (hidden, sampled uint64) {
	return s.HiddenCycles, s.SampledCycles
}

// copyRows writes src (one row per element of rows) into the register
// file at the listed rows.
func copyRows(file []uint64, rows []int32, src []uint64, w int) {
	for i, r := range rows {
		copy(file[int(r)*w:(int(r)+1)*w], src[i*w:(i+1)*w])
	}
}

// settleFull executes the Full program for the current (pins, q),
// restoring the invariant that full holds every node's settled row.
func (s *CompiledSession) settleFull() {
	p := s.unit.Full
	copyRows(s.full, p.In, s.pins, s.w)
	copyRows(s.full, p.Q, s.q, s.w)
	s.execProgram(p, s.full)
	s.fresh = true
}

// refreshFull re-settles the Full register file if hidden cycles left
// it stale. Settling is a pure function of (pins, q), so the recomputed
// rows are exactly what an interpreted session would hold here.
func (s *CompiledSession) refreshFull() {
	if !s.fresh {
		s.settleFull()
	}
}

// b2u maps a bool to 0/1 branchlessly (the compiler emits SETcc, not a
// jump — drawn input bits are 50/50 random, so a branch here would
// mispredict half the time).
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// drawInputs fills buf with every lane's next input pattern, consuming
// the sources in lane order (the same order as PackedSession.advance).
// Lanes are packed one word at a time through register-local
// accumulators: the 64 lanes of a word OR into accBuf (a few hot cache
// lines) instead of read-modify-writing the strided buf rows per lane,
// and the bit insert is branchless.
func (s *CompiledSession) drawInputs() {
	w := s.w
	acc := s.accBuf
	for word := 0; word < w; word++ {
		for i := range acc {
			acc[i] = 0
		}
		lo, hi := word<<6, word<<6+64
		if hi > s.lanes {
			hi = s.lanes
		}
		for k := lo; k < hi; k++ {
			s.srcs[k].Next(s.laneBuf)
			bit := uint64(1) << uint(k&63)
			for i, v := range s.laneBuf {
				acc[i] |= bit * b2u(v)
			}
		}
		for i, a := range acc {
			s.buf[i*w+word] = a
		}
	}
}

// advanceHidden computes the packed next latch state with the Step
// program and draws the next input patterns. The Full file stays stale.
func (s *CompiledSession) advanceHidden() {
	p := s.unit.Step
	copyRows(s.step, p.In, s.pins, s.w)
	copyRows(s.step, p.Q, s.q, s.w)
	s.execProgram(p, s.step)
	for i, d := range p.D {
		copy(s.nextQ[i*s.w:(i+1)*s.w], s.step[int(d)*s.w:(int(d)+1)*s.w])
	}
	s.drawInputs()
}

// advanceFull reads the packed next latch state out of the settled Full
// file (which must be fresh) and draws the next input patterns.
func (s *CompiledSession) advanceFull() {
	for i, d := range s.unit.Full.D {
		copy(s.nextQ[i*s.w:(i+1)*s.w], s.full[int(d)*s.w:(int(d)+1)*s.w])
	}
	s.drawInputs()
}

// StepHidden advances every lane one clock cycle with the Step program.
// No transitions are counted, and full node values are not maintained —
// the next sampled cycle recomputes them.
func (s *CompiledSession) StepHidden() {
	s.advanceHidden()
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	s.fresh = false
	s.HiddenCycles += uint64(s.lanes)
}

// StepHiddenN advances n cycles with StepHidden.
func (s *CompiledSession) StepHiddenN(n int) {
	for i := 0; i < n; i++ {
		s.StepHidden()
	}
}

// StepSampled advances every lane one clock cycle and computes each
// lane's weighted transition sum into powers under the session's delay
// model. A zero-delay session takes it from the Full-program row diff,
// in the same per-lane accumulation order as PackedSession.StepSampled;
// a general-delay one observes each 64-lane word with one Cycle of its
// lane engine, as PackedSession.StepSampledWith does each lane with an
// EventDriven over the same delay table. Either is bit-identical to the
// packed oracle, float summation order included.
func (s *CompiledSession) StepSampled(weights []float64, powers []float64) {
	s.checkSampled("StepSampled", weights, powers)
	if s.engine == nil {
		s.sample(weights, nil, powers)
	} else {
		s.sample(weights, powers, nil)
	}
}

// StepSampledBoth advances every lane one clock cycle of a general-delay
// session, observing it with the lane engine as StepSampled does while
// also computing the zero-delay toggle covariate from the row diff —
// both per-lane bit-identical to PackedSession.StepSampledBoth. It
// panics on a zero-delay session, whose sample is the covariate.
func (s *CompiledSession) StepSampledBoth(weights []float64, powers, toggles []float64) {
	if s.engine == nil {
		panic("sim: compiled StepSampledBoth needs a general-delay session")
	}
	s.checkSampled("StepSampledBoth", weights, powers)
	s.checkSampled("StepSampledBoth", weights, toggles)
	s.sample(weights, powers, toggles)
}

// checkSampled panics unless weights has one entry per node and dst one
// per lane.
func (s *CompiledSession) checkSampled(method string, weights, dst []float64) {
	if len(weights) != s.c.NumNodes() {
		panic(fmt.Sprintf("sim: compiled %s weights length %d, want %d", method, len(weights), s.c.NumNodes()))
	}
	if len(dst) < s.lanes {
		panic(fmt.Sprintf("sim: compiled %s destination length %d, want >= %d", method, len(dst), s.lanes))
	}
}

// sample advances every lane one sampled cycle. The lane engine, when
// the session has one, observes it into powers, and a non-nil toggles
// receives the row diff's zero-delay toggle sums. Per-node counts come
// from the lane engine when there is one, else from the row diff.
func (s *CompiledSession) sample(weights []float64, powers, toggles []float64) {
	s.refreshFull()
	s.advanceFull()
	if s.engine != nil {
		s.observe(weights, powers)
	}
	s.q, s.nextQ = s.nextQ, s.q
	s.pins, s.buf = s.buf, s.pins
	if toggles != nil {
		s.full, s.oldFull = s.oldFull, s.full
	}
	s.settleFull()
	if toggles != nil {
		counts := s.counts
		if s.engine != nil {
			counts = nil
		}
		s.toggleDiff(weights, toggles, counts)
	}
	s.SampledCycles += uint64(s.lanes)
}

// observe runs the advanced-but-unapplied state (settled values in
// full, new pins in buf, new latch state in nextQ) through the lane
// engine, one Cycle per 64-lane word: word j of every row is gathered
// first, so the engine's values are scratch and full keeps the old
// settled rows. Lane k's sum lands in powers[k], bit-identical to what
// PackedSession.observeLanes gets from EventDriven on that lane.
func (s *CompiledSession) observe(weights, powers []float64) {
	w := s.w
	for j := 0; j < w; j++ {
		for i := range s.wvals {
			s.wvals[i] = s.full[i*w+j]
		}
		for i := range s.wpins {
			s.wpins[i] = s.buf[i*w+j]
		}
		for i := range s.wq {
			s.wq[i] = s.nextQ[i*w+j]
		}
		s.engine.Cycle(s.wvals, s.wpins, s.wq, s.masks[j], weights, &s.sums, s.counts)
		copy(powers[j<<6:s.lanes], s.sums[:])
	}
}

// toggleDiff accumulates each lane's weighted toggle sum from the
// settled row diff (full vs oldFull). Iteration is word-outer: every
// lane lives in exactly one word, so each lane still sees its weights
// added in ascending node order — the float summation order per lane is
// identical to the interpreter's; only the (unobservable) cross-lane
// interleaving changes. Word-outer lets each word's 64-lane power span
// be addressed through a fixed-size array pointer, eliminating the
// bounds check on the scatter add in the hottest loop of StepSampled.
//
// counts, when non-nil, additionally receives each node's cross-lane
// transition count: one popcount per (node, word), summed across the
// row's words. Integer sums are order-independent, so the accumulated
// counts match PackedSession.toggleDiff bit for bit at any lane width.
// A general-delay session passes nil here because its counts come from
// the lane engine, which would otherwise double-count the cycle.
func (s *CompiledSession) toggleDiff(weights, powers []float64, counts []uint64) {
	for k := 0; k < s.lanes; k++ {
		powers[k] = 0
	}
	w := s.w
	full, old := s.full, s.oldFull
	for j := 0; j < w; j++ {
		// Inactive lanes are masked out, as in PackedSession.
		mask := s.masks[j]
		if base := j << 6; base+64 <= len(powers) {
			pw := (*[64]float64)(powers[base:])
			if counts != nil {
				for i, wt := range weights {
					d := (full[i*w+j] ^ old[i*w+j]) & mask
					counts[i] += uint64(bits.OnesCount64(d))
					for ; d != 0; d &= d - 1 {
						pw[bits.TrailingZeros64(d)&63] += wt
					}
				}
			} else {
				for i, wt := range weights {
					d := (full[i*w+j] ^ old[i*w+j]) & mask
					for ; d != 0; d &= d - 1 {
						pw[bits.TrailingZeros64(d)&63] += wt
					}
				}
			}
		} else {
			// Final partial word: fewer than 64 lanes of powers remain.
			pw := powers[base:]
			for i, wt := range weights {
				d := (full[i*w+j] ^ old[i*w+j]) & mask
				if counts != nil {
					counts[i] += uint64(bits.OnesCount64(d))
				}
				for ; d != 0; d &= d - 1 {
					pw[bits.TrailingZeros64(d)] += wt
				}
			}
		}
	}
}

// ExtractLane copies lane k's settled state into scalar arrays (any
// destination may be nil), re-settling the Full file first if hidden
// cycles left it stale.
func (s *CompiledSession) ExtractLane(k int, vals, pins, q []bool) {
	if k < 0 || k >= s.lanes {
		panic(fmt.Sprintf("sim: ExtractLane %d of %d", k, s.lanes))
	}
	if vals != nil {
		s.refreshFull()
		s.extractRows(k, vals, s.full)
	}
	if pins != nil {
		s.extractRows(k, pins, s.pins)
	}
	if q != nil {
		s.extractRows(k, q, s.q)
	}
}

// extractRows unpacks lane k of every w-word row in src into dst.
func (s *CompiledSession) extractRows(k int, dst []bool, src []uint64) {
	word, bit := k>>6, uint64(1)<<uint(k&63)
	for i := range dst {
		dst[i] = src[i*s.w+word]&bit != 0
	}
}
