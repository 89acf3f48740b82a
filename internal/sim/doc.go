// Package sim provides the gate-level simulators the estimation
// technique relies on (Section IV of the paper):
//
//   - a zero-delay levelized functional simulator, used to advance the
//     circuit state cheaply through the independence interval,
//   - lane-parallel variants of it that advance 64 independent
//     replications per machine word: CompiledSession, which replays the
//     word-level programs of internal/compile at up to 512 lanes per
//     session and is the one lane engine every parallel estimate runs,
//     and the interpreted PackedZeroDelay/PackedSession, kept in
//     packed.go as its per-lane test oracle (only tests run them;
//     scripts/check_scalar_oracle.sh enforces it), and
//   - an event-driven general-delay simulator with inertial gate delays,
//     used on sampled cycles to observe every transition (including
//     glitches) for the power computation of Eq. 1, in two forms: the
//     lane engine eventLanes, which observes up to 64 lanes per Cycle
//     and is the one every estimate and the max-power search run, and
//     the scalar EventDriven, kept as its oracle.
//
// EventDriven keeps its pending events in a calendar queue: a ring of
// time buckets one delay quantum wide (the gcd of the nonzero gate
// delays, 20 ps under the default fanout-loaded model), as many as the
// largest delay has quanta plus one, capped at 4096 by widening them. The
// events of the time being committed are filed into one list per logic
// level. Commits happen in exactly (time, level, scheduling order), the
// order of the binary heap the queue replaced, so transition sets, float
// summation order and every golden result are unchanged:
//
//   - time, because buckets are visited in ring order and a multi-tick
//     bucket yields its earliest time first;
//   - level, because a commit at time t schedules a zero-delay fanout
//     gate at t on a strictly higher level, which the upward level scan
//     has not reached yet;
//   - scheduling order, because buckets and level lists are only ever
//     appended to in that order.
//
// The heap engine survives as the oracle of a differential test battery
// and of FuzzEventDriven.
//
// eventLanes runs EventDriven's calendar on lane words. A push queues
// one entry (node, time, lane mask) for every lane the same gate
// re-evaluation schedules, and a commit flips its lanes' bits and
// re-evaluates the fanout gates with one word operation per gate
// (evalPacked) for all of them. Entries commit in (time, level, push
// order), which, restricted to one lane, is EventDriven's order, so
// every lane's transitions, counts and float sums are EventDriven's bit
// for bit. A cancellation clears the lane's bit in the entry holding it,
// found through the node's chain of live entries; an entry left with no
// lanes is dropped where EventDriven drops a stale event. Its
// differential battery diffs it against EventDriven lane by lane on
// every bench89 circuit and random netlists under the same delay tables,
// at 1 to 64 lanes and with holed masks, and FuzzEventDriven fuzzes it
// too.
//
// A sampled cycle is "apply the new (pattern, state), settle, return the
// weighted transition sum of Eq. 1", and which transitions are counted
// is the delay-model scenario (power.PowerMode at the estimator level).
// The compiled sessions pick it at construction from their delay table
// (NewSession, NewCompiledSession): a table gives the paper's
// general-delay observation, glitches included, on a lane engine each
// session builds from it once; nil gives zero-delay observation, at
// most one functional toggle per node, computed as a settled-value
// diff. The interpreted oracles take a scalar PowerEngine instead:
// *EventDriven for general delay, *ZeroDelayToggle for zero delay.
//
// The sampled phase is bit-parallel in both scenarios. In zero delay,
// CompiledSession.StepSampled computes every lane's power from one
// settle of the register file plus an XOR diff pass over the value words
// (each set bit routes its node's weight to its lane's sum) — a sampled
// cycle then costs the same order as a hidden one. Lane k of a compiled
// sampled step is bit-identical, float summation order included, to
// lane k of the packed oracle's, and that in turn to a ZeroDelayToggle
// ScalarSession over the same source; the differential battery and the
// property tests assert this for every lane. In general delay,
// StepSampled observes each 64-lane word of the session with one
// lane-engine Cycle, exact glitch accounting included; lane k matches
// the packed oracle's, which runs EventDriven on that lane.
//
// Session is the one serial trajectory every estimator runs: phase 1
// (warm-up and interval selection) of all of them, and the sampling
// phase of the paper's serial estimator, the reference run, batch means
// and the FSM-analysis estimator. It runs on the compiled engine. Each
// cycle advances the latch state with the one-lane Step program; each
// sampled cycle records its old (pins, q) in lane j of one word and its
// new (pins, q) in lane j of another, and Collect settles 64 such pairs
// together (StepSampled settles its one pair at once). A batch takes
// one one-word Full pass over the old word; then zero-delay samples take
// a second pass over the new word and each pair's lane diff against the
// old rows, summed in node-index order like ZeroDelayToggle, and
// general-delay samples one lane-engine Cycle over the batch with the
// new word as its sources. An observer (Session.SetObserver) still sees
// each cycle's transitions in sample order. A general-delay Collect of
// several batches settles them on a helper goroutine beside the
// trajectory, each sample at its fixed offset.
//
// The tail's general-delay rounds split the same way:
// CompiledSession.Capture records a round's old settled rows and new
// state (a Round), and a LaneObserver, holding no session state,
// observes it, so internal/core can observe one round while the
// trajectory captures the next.
// ScalarSession interprets the same trajectory cycle by cycle with the
// scalar simulators. It is the oracle: samples, counts, cycle counters,
// settled values and observer streams of the two are bit-identical, and
// only tests use it.
//
// The scalar simulators operate on the same dense value array, so a
// ScalarSession can interleave them cycle by cycle; the packed
// simulator keeps one uint64 word per node and can extract any single
// lane into the scalar representation. All inner loops run over the
// circuit's frozen CSR view (netlist.CSR): flat kind/level/fanin/fanout
// arrays instead of per-Node slice chasing.
package sim
