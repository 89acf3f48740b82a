package sim

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"slices"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// pairsPerSettle is the number of sampled cycles a Session settles as
// one batch, a full lane word: pair j's old (pins, q) is lane j of one
// word and its new (pins, q) lane j of another. It is also how often
// Collect polls its context.
const pairsPerSettle = MaxLanes

// maxQueued bounds the recorded batches a Collect keeps waiting for its
// helper. A trajectory that outruns the helper settles its next batch
// itself, so a long Collect holds at most maxQueued+2 batches at once.
const maxQueued = 4

// Session is one serial sequential-circuit trajectory — the substrate of
// the paper's two-phase sampling — driven through the compiled programs
// of internal/compile. Hidden cycles advance the circuit inside the
// independence interval without observing power; sampled cycles return
// the weighted transition sum of Eq. 1 under the session's delay model.
// Every sample, per-node count and cycle counter is bit-identical to a
// ScalarSession built with the same circuit, source and weights and the
// matching scalar engine: EventDriven over the session's delay table,
// or ZeroDelayToggle for a zero-delay session.
//
// Only the latch state is truly serial, and a sampled cycle's
// observation is a pure function of its old and new (pins, q). So every
// cycle advances with the Step program (the latch-D cone only, one
// lane), and a sampled cycle merely records its old and new (pins, q)
// as the next pair of a batch of up to pairsPerSettle. A batch is
// settled on a settle unit: one one-word Full pass over the old states,
// then
//
//   - zero-delay (no delay table): a second pass over the new states,
//     and each pair's weighted lane diff against a copy of the old rows,
//     summed in node-index order — ZeroDelayToggle's own summation
//     order;
//   - general-delay: one pass of the unit's lane engine (eventLanes, on
//     the calendar of the session's delay table) over every recorded
//     lane, with the new states as its sources. Each lane replays what
//     EventDriven computes from the arguments a ScalarSession hands it,
//     and leaves the new settled values behind, so a covariate is the
//     same lane diff — what ScalarSession.StepSampledPair computes.
//
// A Collect of more than one batch settles them beside the trajectory:
// one helper goroutine with a settle unit of its own starts with the
// first full batch and settles the batches the trajectory queues, and
// once the trajectory is done the caller settles the rest with it. Each
// sample lands at its fixed offset and per-node counts are integer
// sums, so the result is the serial one bit for bit. The helper runs
// only when GOMAXPROCS leaves it a core, the session observes
// event-driven and no observer is set: a zero-delay batch's two Full
// passes are a few percent of the cycles that record it, too little to
// pay for a second settle unit.
// StepSampled settles its one pair at once, for callers that act between
// cycles (state jumps, waveform observers).
type Session struct {
	c       *netlist.Circuit
	unit    *compile.Unit
	src     vectors.Source
	weights []float64

	// General-delay observation: the delay model the lane engines
	// realize and the observer SetObserver installed on the caller's
	// unit (own.lanes is nil for zero-delay samples from the lane diff).
	model    string
	observer func(id netlist.NodeID, t delay.Picoseconds, v bool)

	// The current state, one word per input and latch; every bit of a
	// word holds the same value, so the Step program's output words are
	// all-zero or all-one too.
	pins []uint64
	q    []uint64

	step   []uint64 // one-word Step register file
	pinBuf []bool

	// own settles on the caller's goroutine; helper is the helper
	// goroutine's unit, built on first use.
	own    settleUnit
	helper *settleUnit
	// batches are the recorded-batch buffers; batches[0] is the one
	// StepSampled and a serial Collect record into.
	batches []*settleBatch

	// Each pair's transitions, held for the observer until the batch is
	// settled (only while an observer is set).
	seen [pairsPerSettle][]transition

	sample [1]float64 // StepSampled's settle destination

	// pool, when positive, stands in for GOMAXPROCS in Collect's choice
	// of a helper. Only tests in this package set it.
	pool int

	// HiddenCycles and SampledCycles count the work done since the last
	// ResetCounters; they are the paper's simulation-cost metrics.
	HiddenCycles  uint64
	SampledCycles uint64
}

// settleUnit is what settles a batch: a one-word Full register file,
// the lane engine of a general-delay session, and sum and count
// buffers. The caller and the helper each own one.
type settleUnit struct {
	full  []uint64    // one-word Full register file: 64 lanes, one row per node
	old   []uint64    // the old settled rows the toggle diff reads
	lanes *eventLanes // nil for zero-delay
	sums  [64]float64
	// counts is the helper's per-node count buffer, added to the
	// caller's after the join; the caller's unit counts in place.
	counts []uint64
}

// settleBatch is up to pairsPerSettle recorded pairs: pair j's old
// (pins, q) in lane j of pins and q, its new (pins, q) in lane j of
// newPins and newQ. at is the offset of pair 0's sample in the
// collection.
type settleBatch struct {
	pins, q       []uint64
	newPins, newQ []uint64
	n, at         int
}

// NewSession builds a session over the circuit's cached compiled Unit.
// Its sampled cycles are observed event-driven under the delay table dt
// (general-delay, glitches included), or, when dt is nil, by the
// zero-delay toggle diff. weights[i] is the per-transition power
// contribution of node i (see power Model.Weights); src must have width
// len(c.Inputs). The circuit starts in the all-zero latch state with an
// all-zero input pattern.
func NewSession(c *netlist.Circuit, dt *delay.Table, src vectors.Source, weights []float64) *Session {
	if src.Width() != len(c.Inputs) {
		panic(fmt.Sprintf("sim: source width %d, circuit has %d inputs", src.Width(), len(c.Inputs)))
	}
	if len(weights) != len(c.Nodes) {
		panic(fmt.Sprintf("sim: weights length %d, circuit has %d nodes", len(weights), len(c.Nodes)))
	}
	u := compile.For(c)
	s := &Session{
		c:       c,
		unit:    u,
		src:     src,
		weights: weights,
		pins:    make([]uint64, len(c.Inputs)),
		q:       make([]uint64, len(c.Latches)),
		step:    make([]uint64, u.Step.Slots),
		pinBuf:  make([]bool, len(c.Inputs)),
	}
	u.Step.InitConsts(s.step, 1)
	var lanes *eventLanes
	if dt != nil {
		lanes, s.model = newEventLanes(newCalendar(c, dt)), dt.ModelName
	}
	s.own = s.newUnit(lanes)
	s.batches = []*settleBatch{s.newBatch()}
	return s
}

// newUnit builds a settle unit observing with lanes (nil for a
// zero-delay session). Its old rows are allocated on its first toggle
// diff: a general-delay unit diffs only for covariates.
func (s *Session) newUnit(lanes *eventLanes) settleUnit {
	u := settleUnit{full: make([]uint64, s.unit.Full.Slots), lanes: lanes}
	s.unit.Full.InitConsts(u.full, 1)
	return u
}

// newBatch allocates one recorded-batch buffer.
func (s *Session) newBatch() *settleBatch {
	in, l := len(s.c.Inputs), len(s.c.Latches)
	return &settleBatch{
		pins: make([]uint64, in), q: make([]uint64, l),
		newPins: make([]uint64, in), newQ: make([]uint64, l),
	}
}

// Circuit returns the simulated circuit.
func (s *Session) Circuit() *netlist.Circuit { return s.c }

// Engine names what observes the session's sampled cycles, as
// Result.Engine and Result.DelayModel record it: EngineEventDriven and
// the delay table's model name, or EngineZeroDelay and "zero" for a
// zero-delay session.
func (s *Session) Engine() (name, delayModel string) {
	if s.own.lanes == nil {
		return EngineZeroDelay, delay.Zero{}.Name()
	}
	return EngineEventDriven, s.model
}

// SetObserver installs (or clears, with nil) a callback that receives
// every committed transition of the sampled cycles, the t=0 source
// changes included: cycle by cycle in sample order, each cycle's calls
// in the order EventDriven's observer gets them when it runs that
// cycle. Observation slows sampling, and a Collect settles its batches
// in order on the caller's goroutine while an observer is set;
// estimation runs leave it unset. A zero-delay session has no timed
// transitions, so it panics on a non-nil fn.
func (s *Session) SetObserver(fn func(id netlist.NodeID, t delay.Picoseconds, v bool)) {
	if s.own.lanes == nil {
		if fn != nil {
			panic("sim: SetObserver needs a general-delay session; a zero-delay one has no timed transitions")
		}
		return
	}
	s.observer = fn
	if fn == nil {
		s.own.lanes.SetObserver(nil)
		return
	}
	s.own.lanes.SetObserver(func(lane int, id netlist.NodeID, t delay.Picoseconds, v bool) {
		s.seen[lane] = append(s.seen[lane], transition{id, t, v})
	})
}

// ResetCounters zeroes the cycle-cost counters.
func (s *Session) ResetCounters() {
	s.HiddenCycles = 0
	s.SampledCycles = 0
}

// SetState forces the latch state (len = #latches). Used by the
// FSM-analysis estimator, which samples states from a stationary
// distribution.
func (s *Session) SetState(q []bool) {
	for i, v := range q {
		s.q[i] = -b2u(v)
	}
}

// SetPins forces the current input pattern.
func (s *Session) SetPins(pins []bool) {
	for i, v := range pins {
		s.pins[i] = -b2u(v)
	}
}

// Values returns the settled node values of the current state, in a
// new slice indexed by NodeID.
func (s *Session) Values() []bool {
	s.settleWord(s.own.full, s.pins, s.q)
	vals := make([]bool, s.c.NumNodes())
	for i := range vals {
		vals[i] = s.own.full[i]&1 != 0
	}
	return vals
}

// settleWord runs the Full program over one word of (pins, q) in file.
func (s *Session) settleWord(file, pins, q []uint64) {
	p := s.unit.Full
	for i, r := range p.In {
		file[r] = pins[i]
	}
	for i, r := range p.Q {
		file[r] = q[i]
	}
	p.Exec(file, 1)
}

// advance moves the current state one clock cycle: the next latch state
// from the Step program, then the next input pattern from the source —
// the same draw order as ScalarSession.
func (s *Session) advance() {
	p := s.unit.Step
	for i, r := range p.In {
		s.step[r] = s.pins[i]
	}
	for i, r := range p.Q {
		s.step[r] = s.q[i]
	}
	p.Exec(s.step, 1)
	for i, d := range p.D {
		s.q[i] = s.step[d]
	}
	s.src.Next(s.pinBuf)
	for i, v := range s.pinBuf {
		s.pins[i] = -b2u(v)
	}
}

// StepHiddenN advances n cycles without observing power.
func (s *Session) StepHiddenN(n int) {
	for i := 0; i < n; i++ {
		s.advance()
	}
	s.HiddenCycles += uint64(n)
}

// record ORs the current state into one lane of a batch's words.
func (s *Session) record(pins, q []uint64, lane int) {
	bit := uint64(1) << uint(lane)
	for i, v := range s.pins {
		pins[i] |= v & bit
	}
	for i, v := range s.q {
		q[i] |= v & bit
	}
}

// recordPair advances one sampled cycle, recording its old and new
// state as the next pair of batch b.
func (s *Session) recordPair(b *settleBatch) {
	s.record(b.pins, b.q, b.n)
	s.advance()
	s.record(b.newPins, b.newQ, b.n)
	b.n++
	s.SampledCycles++
}

// begin empties batch b and places it at offset at.
func (b *settleBatch) begin(at int) {
	clear(b.pins)
	clear(b.q)
	clear(b.newPins)
	clear(b.newQ)
	b.n, b.at = 0, at
}

// StepSampled advances one clock cycle, observes it under the session's
// delay model and returns the weighted transition sum: sum_i w_i * n_i,
// which equals the cycle's average power when the weights are built as
// C_i * VDD^2 / (2T) (see power Model.Weights). If counts is non-nil,
// the per-node transition counts are accumulated into it. The cycle is
// settled before StepSampled returns, so an observer (SetObserver) has
// seen its transitions; Collect is the batched form for runs of
// samples.
func (s *Session) StepSampled(counts []uint64) float64 {
	b := s.batches[0]
	b.begin(0)
	s.recordPair(b)
	s.settle(&s.own, b, s.sample[:], nil, counts)
	return s.sample[0]
}

// Collect appends n power samples to dst, each taken after k hidden
// cycles, and returns the extended slices. A non-nil cov also receives
// each sampled cycle's zero-delay toggle power, and a non-nil counts
// (len NumNodes) accumulates the per-node transition counts —
// ScalarSession.StepSampledPair and StepSampled semantics. The
// trajectory continues across calls exactly as one longer call would.
//
// Collect polls ctx before each batch of pairsPerSettle samples. Once
// ctx ends it stops there and returns ctx.Err() with dst and cov at
// their lengths on entry; counts may then hold part of the collection.
// A helper goroutine (see Session) is joined before Collect returns or
// panics, and a panic on it is raised again on the caller's goroutine
// as a *GoroutinePanic.
func (s *Session) Collect(ctx context.Context, k, n int, dst, cov []float64, counts []uint64) ([]float64, []float64, error) {
	base, cbase := len(dst), len(cov)
	dst = slices.Grow(dst, n)[:base+n]
	x := dst[base:]
	var c []float64
	if cov != nil {
		cov = slices.Grow(cov, n)[:cbase+n]
		c = cov[cbase:]
	}
	pool := s.pool
	if pool == 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	var d *drain
	defer func() { d.stop() }()
	for at := 0; at < n; at += pairsPerSettle {
		if err := ctx.Err(); err != nil {
			return dst[:base], cov[:cbase], err
		}
		b := s.batches[0]
		if d != nil {
			b = <-d.free
		}
		b.begin(at)
		for b.n < min(pairsPerSettle, n-at) {
			s.StepHiddenN(k)
			s.recordPair(b)
		}
		switch {
		case d == nil && n-at > pairsPerSettle && pool > 1 && s.own.lanes != nil && s.observer == nil:
			d = s.startHelper(b, x, c, counts)
		case d != nil && d.offer(b):
		default:
			s.settle(&s.own, b, x, c, counts)
			if d != nil {
				d.free <- b
			}
		}
	}
	if d != nil {
		d.finish(&s.own, x, c, counts)
	}
	return dst, cov, nil
}

// drain is one Collect's helper: the goroutine that settles queued
// batches on the helper's unit, the queue and the free batch buffers.
type drain struct {
	s      *Session
	queue  chan *settleBatch // recorded, not yet settled
	free   chan *settleBatch // ready to record into
	closed bool              // queue is closed (caller side only)
	quit   atomic.Bool       // the caller is leaving early: settle no more
	done   chan struct{}     // closed once the helper has returned
	panic  *GoroutinePanic
}

// startHelper starts the helper goroutine on the recorded batch first,
// which it settles before it takes any from the queue. The session's
// batch buffers and the helper's unit are allocated once, on first use.
func (s *Session) startHelper(first *settleBatch, x, c []float64, counts []uint64) *drain {
	for len(s.batches) < maxQueued+2 {
		s.batches = append(s.batches, s.newBatch())
	}
	if s.helper == nil {
		var lanes *eventLanes
		if s.own.lanes != nil {
			lanes = newEventLanes(s.own.lanes.calendar)
		}
		u := s.newUnit(lanes)
		s.helper = &u
	}
	h := s.helper
	if counts != nil {
		if h.counts == nil {
			h.counts = make([]uint64, len(s.weights))
		}
		clear(h.counts)
	}
	hc := h.counts
	if counts == nil {
		hc = nil
	}
	d := &drain{
		s:     s,
		queue: make(chan *settleBatch, maxQueued),
		free:  make(chan *settleBatch, len(s.batches)),
		done:  make(chan struct{}),
	}
	for _, b := range s.batches {
		if b != first {
			d.free <- b
		}
	}
	go func() {
		defer close(d.done)
		defer func() {
			if r := recover(); r != nil {
				d.panic = CarryPanic(r)
			}
		}()
		for b := first; b != nil; b = <-d.queue {
			if d.quit.Load() {
				return
			}
			s.settle(h, b, x, c, hc)
			d.free <- b
		}
	}()
	return d
}

// offer queues batch b for the helper unless the queue is full.
func (d *drain) offer(b *settleBatch) bool {
	select {
	case d.queue <- b:
		return true
	default:
		return false
	}
}

// finish ends the trajectory's queueing: the caller settles queued
// batches on its unit u beside the helper until none is left, then joins
// the helper, adds the helper's counts and raises a panic it carried.
func (d *drain) finish(u *settleUnit, x, c []float64, counts []uint64) {
	d.closed = true
	close(d.queue)
	for b := range d.queue {
		d.s.settle(u, b, x, c, counts)
		d.free <- b
	}
	<-d.done
	if d.panic != nil {
		panic(d.panic)
	}
	if counts != nil {
		for i, n := range d.s.helper.counts {
			counts[i] += n
		}
	}
}

// stop joins the helper on an early exit (a cancellation or a panic on
// the caller's goroutine): it settles nothing more, and a panic it
// carried is dropped. stop on a nil drain or after finish is a no-op.
func (d *drain) stop() {
	if d == nil {
		return
	}
	d.quit.Store(true)
	if !d.closed {
		d.closed = true
		close(d.queue)
	}
	<-d.done
}

// settle observes batch b on unit u: pair j's sample goes to
// x[b.at+j], its covariate to c[b.at+j] when c is non-nil, and its
// per-node transitions to counts when counts is non-nil. One Full pass
// settles the old states; then a zero-delay unit settles the new states
// in a second pass and a general-delay one runs them through its lane
// engine, which leaves the new settled values behind. Either way the
// toggle diff against a copy of the old rows is the zero-delay sample,
// so it is each pair's covariate.
func (s *Session) settle(u *settleUnit, b *settleBatch, x, c []float64, counts []uint64) {
	n := b.n
	mask := ^uint64(0) >> uint(pairsPerSettle-n)
	nodes := len(s.weights)
	s.settleWord(u.full, b.pins, b.q)
	if u.lanes == nil || c != nil {
		if u.old == nil {
			u.old = make([]uint64, nodes)
		}
		copy(u.old, u.full[:nodes])
	}
	if u.lanes == nil {
		s.settleWord(u.full, b.newPins, b.newQ)
		s.toggleDiff(u, mask, counts)
		copy(x[b.at:b.at+n], u.sums[:n])
		if c != nil {
			copy(c[b.at:b.at+n], u.sums[:n])
		}
		return
	}
	if s.observer != nil {
		for j := range s.seen {
			s.seen[j] = s.seen[j][:0]
		}
	}
	u.lanes.Cycle(u.full[:nodes], b.newPins, b.newQ, mask, s.weights, &u.sums, counts)
	copy(x[b.at:b.at+n], u.sums[:n])
	if c != nil {
		// Event-driven cycles take their counts from the lane engine.
		s.toggleDiff(u, mask, nil)
		copy(c[b.at:b.at+n], u.sums[:n])
	}
	if s.observer != nil {
		for _, seen := range s.seen[:n] {
			for _, tr := range seen {
				s.observer(tr.node, tr.t, tr.v)
			}
		}
	}
}

// transition is one committed change as an observer sees it.
type transition struct {
	node netlist.NodeID
	t    delay.Picoseconds
	v    bool
}

// toggleDiff sums each masked lane's toggle weights, the rows of u.full
// that differ from u.old, into u.sums in node-index order, and adds
// each node's toggling lanes to counts when it is non-nil.
func (s *Session) toggleDiff(u *settleUnit, mask uint64, counts []uint64) {
	u.sums = [64]float64{}
	for i, wt := range s.weights {
		d := (u.full[i] ^ u.old[i]) & mask
		if counts != nil {
			counts[i] += uint64(bits.OnesCount64(d))
		}
		for ; d != 0; d &= d - 1 {
			u.sums[bits.TrailingZeros64(d)] += wt
		}
	}
}

// GoroutinePanic is a panic raised on a goroutine that simulation work
// was handed to — a Collect's helper, or a shard or helper goroutine of
// internal/core — carried to the goroutine that waits for that work,
// together with the stack it was raised on. Raised again there, it
// reaches the caller's recover (the service fails just that job)
// instead of killing the process.
type GoroutinePanic struct {
	Value any
	Stack []byte
}

// CarryPanic wraps a value recovered on a helper goroutine, with the
// current stack, for the waiting goroutine to raise again. A value
// already carried off another goroutine is returned as it is.
func CarryPanic(r any) *GoroutinePanic {
	if p, ok := r.(*GoroutinePanic); ok {
		return p
	}
	return &GoroutinePanic{Value: r, Stack: debug.Stack()}
}

func (p *GoroutinePanic) Error() string {
	return fmt.Sprintf("%v [goroutine stack:\n%s]", p.Value, p.Stack)
}
