// Package sim provides the gate-level simulators the estimation
// technique relies on (Section IV of the paper):
//
//   - a zero-delay levelized functional simulator, used to advance the
//     circuit state cheaply through the independence interval,
//   - a bit-parallel 64-lane variant of it (PackedZeroDelay), which
//     advances 64 independent replications per machine word, and
//   - an event-driven general-delay simulator with inertial gate delays,
//     used on sampled cycles to observe every transition (including
//     glitches) for the power computation of Eq. 1.
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
// Power observation itself is pluggable behind the PowerEngine
// interface: a sampled cycle is "apply the new (pattern, state), settle,
// return the weighted transition sum of Eq. 1", and which transitions
// are counted is the engine's delay-model scenario (power.PowerMode at
// the estimator level). *EventDriven realizes the paper's general-delay
// observation (glitches included); *ZeroDelayToggle realizes zero-delay
// observation (at most one functional toggle per node, computed as a
// settled-value diff). Sessions take an engine at construction
// (NewSessionEngine) and default to event-driven (NewSession).
//
// The sampled phase is bit-parallel in the zero-delay scenario:
// PackedSession.StepSampled computes all 64 lanes' powers from one
// packed sweep plus an XOR diff pass over the value words (each set bit
// routes its node's weight to its lane's sum) — a sampled cycle then
// costs the same order as a hidden one. Lane k of a packed sampled step
// is bit-identical, float summation order included, to a scalar
// ZeroDelayToggle session over the same source; the property tests
// assert this for every lane. PackedSession.StepSampledWith keeps the
// general-delay path: each lane is extracted into a scalar engine for
// exact glitch accounting.
//
// Trajectory is the compiled engine's single-trajectory form, used for
// the estimators' serial phase 1 (warm-up and interval selection). Each
// cycle advances the latch state with the one-lane Step program; each
// sampled cycle records its old and new (pins, q), and 32 such pairs
// are settled together in one 64-lane Full pass. Zero-delay samples are
// the pairs' lane diffs, summed in node-index order like
// ZeroDelayToggle; general-delay samples hand the settled old lane to
// the event-driven engine. Samples, counts and cycle counters are
// bit-identical to a scalar Session's; Session stays the reference and
// drives the serial estimators.
//
// The scalar simulators operate on the same dense value array, so a
// session can interleave them cycle by cycle; the packed simulator keeps
// one uint64 word per node and can extract any single lane into the
// scalar representation. All inner loops run over the circuit's frozen
// CSR view (netlist.CSR): flat kind/level/fanin/fanout arrays instead of
// per-Node slice chasing.
package sim
