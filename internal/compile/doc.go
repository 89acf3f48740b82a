// Package compile turns a frozen, levelized netlist into straight-line
// word-level programs — the software analogue of the "power emulation"
// idea from hardware-accelerated power estimation: pay the per-gate
// decoding cost once, at compile time, and replay the circuit at native
// word speed afterwards.
//
// A compilation Unit holds two programs over the same circuit:
//
//   - Full computes the settled value of every node (one register slot
//     per node). It is observation-exact: slot i holds exactly what the
//     interpreted sweep of the test oracle (sim.PackedZeroDelay.Settle)
//     computes for node i, so weighted toggle diffs over the register
//     file are bit-identical to the interpreter's. Its only liberties
//     are ones that cannot change any node value: gates whose value is
//     invariant (constant cones) are hoisted into init data, and
//     identity operands (AND with a known-1 input, XOR with a known-0
//     input, …) are elided with the gate's polarity adjusted.
//   - Step computes only the next latch state (the D-pin values). It is
//     free to restructure: gates outside the transitive fanin cone of
//     the latches are eliminated (dead fanout with respect to state
//     evolution), BUF chains collapse to slot aliases, single-fanout
//     same-base gate chains fuse into multi-input ops (AND feeding AND
//     becomes one n-ary AND; XOR-base fusion absorbs XNOR/NOT children
//     by flipping the parent's polarity), and register slots are
//     recycled by a linear-scan allocator so the working set stays
//     cache-resident. Hidden cycles — the bulk of every estimation run —
//     execute Step; sampled cycles execute Full.
//
// The bytecode is deliberately tiny: a flat instruction array of
// (opcode, dst, operands) over a register file of W-word rows, where W
// is chosen by the caller at execution time (1 word = 64 lanes, up to 8
// words = 512 lanes per step). Two-operand gates get specialized
// opcodes; wider gates read their operand list from a shared args
// table. Instructions are emitted level by level, and within each
// level sorted by opcode (instructions of one level never read each
// other's rows, so their order is free). Program.Exec is the one
// executor: a single pass with no scheduling logic, where each op
// streams W contiguous words per operand and, at the full 8-word width,
// each same-opcode run dispatches once — the per-instruction decode
// cost is amortized over the whole lane block.
//
// Programs are compiled once per frozen circuit — Unit construction is
// a pure function of the CSR view built at Freeze — and cached on the
// circuit itself (netlist.(*Circuit).SetArtifact), so every
// sim.CompiledSession over the same circuit shares one Unit.
//
// Every pass above must be observation-equivalent to the interpreter,
// which only tests run: the differential battery in internal/sim
// (property tests over all bench89 circuits and randomized netlists,
// and FuzzCompile) asserts bit-identical next-state words and per-lane
// toggle powers, and the estimator goldens in internal/core, recorded
// from whole estimates on the interpreter, pin the estimation results.
package compile
