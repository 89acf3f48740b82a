// Command dipebench is the end-to-end benchmark of the DIPE estimator.
// It drives the real entry points with seeded workloads: the in-process
// parallel estimator that dipe calls, and a loopback dipe-server whose
// dispatcher is local or a two-worker cluster. It checks every result,
// prints each metric as "workload metric value unit", and ends with one
// JSON line: {"correct", "attempted", "failed", "metrics"}. An untraced
// run prints the end-to-end metrics, a traced run (--trace 1) the
// per-layer ones; BENCHMARK.json at the repository root declares both.
//
// Build and run it from the repository root with bench/run.sh; see
// bench/README.md for the workloads, the metrics and how to compare two
// commits.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]metricReading `json:"metrics"`
}

type metricReading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dipebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or \"all\" for each in its own process")
	seed := fs.Int64("seed", 1, "workload seed: generates every request")
	seconds := fs.Float64("seconds", 20, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "1: traced run, printing the per-layer metrics")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for runs.jsonl and the trace files")
	cal := fs.Bool("calibrate", false, "regenerate bench/reference.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cal {
		if err := calibrate(filepath.Join("bench", "reference.json"), stderr); err != nil {
			fmt.Fprintln(stderr, "calibrate:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "--trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "--seconds must be positive")
		return 2
	}
	if *name == "all" {
		return runAll(args, stdout, stderr)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	refs, err := loadRefs()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1, out: *out}
	rep, err := runWorkload(context.Background(), w, cfg, refs)
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
		return 1
	}
	if err := appendReport(filepath.Join(*out, "runs.jsonl"), rep); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(stderr, "problem:", p)
	}
	if err := printRun(stdout, w.name, rep); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// printRun prints one "workload metric value unit" line per declared
// metric of the run's kind, then the summary line.
func printRun(stdout io.Writer, name string, rep *report) error {
	defs := endToEndDefs
	if rep.Traced {
		defs = perLayerDefs
	}
	sum := summary{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricReading{}}
	for _, d := range defs {
		v := rep.Metrics[d.Name]
		fmt.Fprintf(stdout, "%s %s %s %s\n", name, d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
		sum.Metrics[d.Name] = metricReading{v, d.Unit}
	}
	b, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(b))
	return err
}

func appendReport(path string, rep *report) error {
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload in a process of its own, so that memory
// figures and the process-wide compiled-engine counters belong to one
// workload. It passes each child's metric lines through and ends with
// one summary whose metrics are keyed "workload/metric".
func runAll(args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	all := summary{Correct: true, Metrics: map[string]metricReading{}}
	for _, w := range workloads() {
		child := append(append([]string(nil), args...), "--workload", w.name) // the last --workload wins
		cmd := exec.Command(self, child...)
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(pipe)
		for sc.Scan() {
			if last != "" {
				fmt.Fprintln(stdout, last)
			}
			last = sc.Text()
		}
		err = cmd.Wait()
		var sum summary
		if jerr := json.Unmarshal([]byte(last), &sum); jerr != nil {
			var exit *exec.ExitError
			if err == nil || !errors.As(err, &exit) {
				err = fmt.Errorf("no summary line: %v", jerr)
			}
			fmt.Fprintf(stderr, "%s: %v\n", w.name, err)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && sum.Correct && err == nil
		all.Attempted += sum.Attempted
		all.Failed += sum.Failed
		for k, v := range sum.Metrics {
			all.Metrics[w.name+"/"+k] = v
		}
	}
	b, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !all.Correct {
		return 1
	}
	return 0
}
