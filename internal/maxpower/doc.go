// Package maxpower implements simulation-based maximum power estimation
// in the spirit of the paper's ref [8] (Hill, Teng, Kang, ISCAS'96): a
// randomized search for the (state, pattern, next-pattern) triple that
// maximizes single-cycle power dissipation. Where the average-power
// problem (the main paper) is statistical estimation, the maximum-power
// problem is optimization: peak cycles drive IR-drop and reliability
// analysis.
//
// Two searchers are provided:
//
//   - RandomSearch: the Monte-Carlo baseline, best of N random cycles;
//   - HillClimb: greedy bit-flip local search with random restarts,
//     which consistently finds higher peaks on the same budget.
//
// Both report machine-independent cost (cycles simulated) so they are
// comparable. Both evaluate each candidate cycle on the compiled
// sim.Session the estimators run, observed event-driven by its lane
// engine under the testbench's delay table.
package maxpower
