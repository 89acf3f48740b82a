// Package vcd writes IEEE 1364 Value Change Dump waveforms from the
// event-driven simulator, so sampled clock cycles — including glitches —
// can be inspected in any standard waveform viewer (GTKWave etc.).
//
// The writer subscribes to a simulation Session's event-driven engine
// as a transition observer and assigns each simulated cycle a fixed
// time slot of one clock period, with the intra-cycle event times
// (picoseconds) offset inside the slot.
//
// Not part of the paper's method — debugging/visualization tooling for
// the event-driven sampled cycles of Section IV, whose glitch activity
// is otherwise only visible as a power number.
package vcd
