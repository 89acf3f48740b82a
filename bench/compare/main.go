// Command compare judges a change against a baseline from two files of
// benchmark runs (the runs.jsonl a run appends to), one per commit:
//
//	bash bench/run.sh compare BASE.jsonl HEAD.jsonl
//
// For every workload and end-to-end metric it prints each side's median
// and quartiles over the untraced runs, the change of the medians, and
// the share of run pairs the change won (the i-th run of a workload on
// one side pairs with its i-th run on the other, so alternate the two
// commits run by run). The verdict applies the metric's bound from
// BENCHMARK.json and the rule of the choosing-metrics guide:
//
//   - regression: the change's median is worse than the baseline's by
//     more than the bound;
//   - unresolved: the baseline's own quartile spread exceeds the bound,
//     and the change's runs do not all beat the baseline's;
//   - gain: at least ten pairs, nine tenths of them won, and the medians
//     differ by more than the baseline's quartile spread;
//   - same: none of the above.
//
// Traced runs are summarised by the per-layer medians of each side.
// Runs of the same workload and seed on both sides must report
// bit-identical results for the estimates both completed; any
// difference is listed. The exit status is 1 on a regression, an
// incorrect run or a result difference.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// run is the part of a benchmark report the comparison reads.
type run struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Traced   bool               `json:"traced"`
	Correct  bool               `json:"correct"`
	Metrics  map[string]float64 `json:"metrics"`
	Digests  []struct {
		Op     int    `json:"op"`
		Result string `json:"result"`
	} `json:"digests"`
}

func main() {
	os.Exit(compare(os.Args[1:], os.Stdout, os.Stderr))
}

func compare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark declaration with the metrics' bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: compare [-spec BENCHMARK.json] BASE.jsonl HEAD.jsonl")
		return 2
	}
	var sp spec
	if err := readJSON(*specPath, &sp); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	base, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	head, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	bad := false
	for _, w := range sp.Workloads {
		b, h := byWorkload(base, w.Name), byWorkload(head, w.Name)
		if len(b.plain)+len(h.plain)+len(b.traced)+len(h.traced) == 0 {
			continue
		}
		fmt.Fprintf(stdout, "== %s: %d/%d untraced runs, %d/%d traced (base/head)\n",
			w.Name, len(b.plain), len(h.plain), len(b.traced), len(h.traced))
		for _, side := range []struct {
			name string
			runs []run
		}{{"base", b.all()}, {"head", h.all()}} {
			for _, r := range side.runs {
				if !r.Correct {
					fmt.Fprintf(stdout, "   INCORRECT %s run, seed %d\n", side.name, r.Seed)
					bad = true
				}
			}
		}
		if len(b.plain) > 0 && len(h.plain) > 0 {
			fmt.Fprintf(stdout, "   %-16s %-32s %-32s %8s %6s  %s\n", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "won", "verdict")
			for _, m := range sp.EndToEnd {
				v := judge(m, values(b.plain, m.Name), values(h.plain, m.Name))
				bad = bad || v.verdict == "REGRESSION"
				fmt.Fprintf(stdout, "   %-16s %-32s %-32s %+7.2f%% %6s  %s\n", m.Name, v.base, v.head, 100*v.change, v.won, v.verdict)
			}
		}
		if len(b.traced) > 0 && len(h.traced) > 0 {
			fmt.Fprintf(stdout, "   %-36s %14s %14s\n", "per-layer (traced medians)", "base", "head")
			for _, m := range sp.PerLayer {
				fmt.Fprintf(stdout, "   %-36s %14.6g %14.6g %s\n", m.Name, median(values(b.traced, m.Name)), median(values(h.traced, m.Name)), m.Unit)
			}
		}
		if diffs := digestDiffs(b.all(), h.all()); len(diffs) > 0 {
			bad = true
			fmt.Fprintf(stdout, "   %d result differences for the same seed:\n", len(diffs))
			for i, d := range diffs {
				if i == 10 {
					fmt.Fprintf(stdout, "     ...\n")
					break
				}
				fmt.Fprintf(stdout, "     %s\n", d)
			}
		}
	}
	if bad {
		return 1
	}
	return 0
}

type runs struct{ plain, traced []run }

func (r runs) all() []run { return append(append([]run(nil), r.plain...), r.traced...) }

func byWorkload(all []run, name string) runs {
	var r runs
	for _, x := range all {
		switch {
		case x.Workload != name:
		case x.Traced:
			r.traced = append(r.traced, x)
		default:
			r.plain = append(r.plain, x)
		}
	}
	return r
}

func values(rs []run, metric string) []float64 {
	var v []float64
	for _, r := range rs {
		if x, ok := r.Metrics[metric]; ok {
			v = append(v, x)
		}
	}
	return v
}

type verdict struct {
	base, head, won, verdict string
	change                   float64 // relative change of the medians, positive = worse
}

func judge(m metricDef, b, h []float64) verdict {
	bq1, bmed, bq3 := quartiles(b)
	hq1, hmed, hq3 := quartiles(h)
	sign := 1.0
	if m.Better == "higher" {
		sign = -1
	}
	v := verdict{
		base:   fmt.Sprintf("%.5g [%.5g, %.5g]", bmed, bq1, bq3),
		head:   fmt.Sprintf("%.5g [%.5g, %.5g]", hmed, hq1, hq3),
		change: sign * (hmed - bmed) / bmed,
	}
	pairs, wins := min(len(b), len(h)), 0
	for i := range pairs {
		if sign*(h[i]-b[i]) < 0 {
			wins++
		}
	}
	v.won = fmt.Sprintf("%d/%d", wins, pairs)
	// allBetter: every change run beats every baseline run.
	bLo, bHi := extremes(b)
	hLo, hHi := extremes(h)
	allBetter := (sign > 0 && hHi < bLo) || (sign < 0 && hLo > bHi)
	spread := (bq3 - bq1) / bmed
	switch {
	case spread > m.Bound && !allBetter:
		v.verdict = fmt.Sprintf("unresolved (base spread %.1f%% > bound %.0f%%)", 100*spread, 100*m.Bound)
	case v.change > m.Bound:
		v.verdict = fmt.Sprintf("REGRESSION (bound %.0f%%)", 100*m.Bound)
	case pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && math.Abs(hmed-bmed) > bq3-bq1:
		v.verdict = "gain"
	default:
		v.verdict = "same"
	}
	return v
}

// quartiles returns the quartiles as Python's statistics.quantiles(n=4)
// computes them (the "exclusive" method); the middle one is the median.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

func extremes(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// digestDiffs compares, for each seed both sides ran, the results of
// the ops both completed.
func digestDiffs(base, head []run) []string {
	bySeed := make(map[int64]map[int]string)
	for _, r := range base {
		if bySeed[r.Seed] == nil {
			bySeed[r.Seed] = make(map[int]string)
		}
		for _, d := range r.Digests {
			bySeed[r.Seed][d.Op] = d.Result
		}
	}
	var diffs []string
	seen := make(map[string]bool)
	for _, r := range head {
		for _, d := range r.Digests {
			want, ok := bySeed[r.Seed][d.Op]
			key := fmt.Sprintf("seed %d op %d", r.Seed, d.Op)
			if ok && want != d.Result && !seen[key] {
				seen[key] = true
				diffs = append(diffs, fmt.Sprintf("%s: base %s, head %s", key, want, d.Result))
			}
		}
	}
	sort.Strings(diffs)
	return diffs
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []run
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for line := 1; sc.Scan(); line++ {
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}
