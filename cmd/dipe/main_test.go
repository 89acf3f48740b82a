package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// runDipe runs the command body on args and fails the test on error. It
// returns what the command wrote to stdout and stderr.
func runDipe(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("run(%q): %v\nstderr:\n%s", args, err, errOut.String())
	}
	return out.String(), errOut.String()
}

// wallTime matches the parts of a report that vary run to run: the
// estimate's wall-time line and a reference run's elapsed time.
var wallTime = regexp.MustCompile(`(?m)^(wall time +: |reference: .* in )\S+$`)

// checkGolden compares got, with its wall times blanked, against
// testdata/name.golden; -update rewrites the file instead.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	got = wallTime.ReplaceAllString(got, "${1}<elapsed>")
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("%s differs from %s:\n--- got\n%s--- want\n%s", name, path, got, want)
	}
}

// runGolden runs the command on args and compares its stdout against
// testdata/name.golden.
func runGolden(t *testing.T, name string, args ...string) {
	t.Helper()
	stdout, _ := runDipe(t, args...)
	checkGolden(t, name, stdout)
}

// TestRunEstimate pins the serial estimator's reports byte for byte
// (apart from wall times): a change to the session it runs on must not
// move them. The other serial modes below are pinned the same way.
func TestRunEstimate(t *testing.T) {
	runGolden(t, "s298", "-circuit", "s298")
	runGolden(t, "s298-v", "-circuit", "s298", "-v")
}

func TestRunBreakdown(t *testing.T) {
	// -replications left 0: -breakdown implies 64 replications.
	runDipe(t, "-circuit", "s27", "-breakdown", "-breakdown-top", "5")
}

func TestRunAllCriteriaAndTests(t *testing.T) {
	// -err 0.10 keeps ks fast.
	for _, crit := range []string{"normal", "ks", "order-statistics", "os"} {
		runDipe(t, "-circuit", "s27", "-criterion", crit, "-err", "0.10")
	}
	for _, test := range []string{"runs", "updown", "vonneumann"} {
		runDipe(t, "-circuit", "s27", "-test", test, "-err", "0.10")
	}
}

func TestRunReferenceMode(t *testing.T) {
	runGolden(t, "s298-ref", "-circuit", "s298", "-ref", "5000")
}

func TestRunZTraceMode(t *testing.T) {
	runGolden(t, "s298-ztrace", "-circuit", "s298", "-ztrace", "3", "-ztrace-len", "320")
}

func TestRunFixedInterval(t *testing.T) {
	runGolden(t, "s298-interval", "-circuit", "s298", "-interval", "2")
}

func TestRunParallelReplications(t *testing.T) {
	out, _ := runDipe(t, "-circuit", "s27", "-replications", "16")
	// The layout is the estimator's choice, so the report names none.
	if !strings.Contains(out, "replications      : 16\n") {
		t.Errorf("report lacks the replications line:\n%s", out)
	}
	// Fixed interval + replications takes the parallel fixed path.
	runDipe(t, "-circuit", "s27", "-replications", "16", "-interval", "2")
}

func TestRunTopConsumers(t *testing.T) {
	runGolden(t, "s298-top", "-circuit", "s298", "-top", "5")
}

func TestRunMaxPower(t *testing.T) {
	runDipe(t, "-circuit", "s27", "-max", "300")
}

// TestRunVCD pins the waveform file apart from its $date line.
func TestRunVCD(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wave.vcd")
	stdout, _ := runDipe(t, "-circuit", "s298", "-vcd", path)
	checkGolden(t, "s298-vcd-stdout", strings.ReplaceAll(stdout, path, "wave.vcd"))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	date := regexp.MustCompile(`(?m)^\$date .*\n`)
	checkGolden(t, "s298-vcd", date.ReplaceAllString(string(data), ""))
}

func TestRunBenchAndBLIFFiles(t *testing.T) {
	dir := t.TempDir()
	benchPath := filepath.Join(dir, "t.bench")
	if err := os.WriteFile(benchPath, []byte("INPUT(A)\nOUTPUT(Y)\nQ = DFF(Y)\nY = XOR(A, Q)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runDipe(t, "-bench", benchPath, "-err", "0.10")

	blifPath := filepath.Join(dir, "t.blif")
	blif := ".model t\n.inputs a\n.outputs q\n.latch d q 0\n.names a q d\n10 1\n01 1\n.end\n"
	if err := os.WriteFile(blifPath, []byte(blif), 0o644); err != nil {
		t.Fatal(err)
	}
	runDipe(t, "-blif", blifPath, "-err", "0.10")
}

func TestRunCorrelatedInputs(t *testing.T) {
	runDipe(t, "-circuit", "s27", "-rho", "0.5", "-err", "0.10")
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{}, // no circuit at all
		{"-circuit", "s27", "-bench", "x.bench"},
		{"-circuit", "sNOPE"},
		{"-circuit", "s27", "-criterion", "bogus"},
		{"-circuit", "s27", "-test", "bogus"},
		{"-bench", "/nonexistent.bench"},
		{"-blif", "/nonexistent.blif"},
		{"-circuit", "s27", "-power-mode", "bogus"},
		{"-bogus"},
	}
	for i, args := range cases {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err == nil {
			t.Errorf("case %d %q: run succeeded, want error", i, args)
		}
	}
	// main maps these to the flag package's exit statuses: 2 for a
	// rejected command line, 0 for -h.
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bogus"}, &stdout, &stderr); !errors.Is(err, errUsage) {
		t.Errorf("unknown flag: run = %v, want errUsage", err)
	}
	if err := run([]string{"-h"}, &stdout, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: run = %v, want flag.ErrHelp", err)
	}
}

func TestRunCompiledBackend(t *testing.T) {
	// Replications + zero-delay take the compiled word-parallel path,
	// at one lane word and at the full 512-lane session width.
	for _, reps := range []string{"8", "512"} {
		runDipe(t, "-circuit", "s27", "-power-mode", "zero-delay", "-replications", reps)
	}
}

func TestRunZeroDelayMode(t *testing.T) {
	runGolden(t, "s298-zero-delay", "-circuit", "s298", "-power-mode", "zero-delay")
	runDipe(t, "-circuit", "s27", "-power-mode", "zero") // alias of "zero-delay"
	runDipe(t, "-circuit", "s27", "-power-mode", "zero", "-replications", "8")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-circuit", "s27", "-power-mode", "bogus", "-replications", "8"}, &stdout, &stderr); err == nil {
		t.Fatal("bogus power mode accepted")
	}
}

// TestRunProgressJSON: -progress-json writes one record per merged
// round and a final snapshot, starting with round 1, whose half-width
// is still unbounded and so reads -1.
func TestRunProgressJSON(t *testing.T) {
	_, stderr := runDipe(t, "-circuit", "s27", "-replications", "64", "-interval", "0", "-progress-json")
	var recs []dipe.Progress
	sc := bufio.NewScanner(strings.NewReader(stderr))
	for sc.Scan() {
		var p dipe.Progress
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("bad record %q: %v", sc.Text(), err)
		}
		recs = append(recs, p)
	}
	const rounds = 35
	if len(recs) != rounds+1 {
		t.Fatalf("%d records, want %d (rounds 1-%d plus the final snapshot)", len(recs), rounds+1, rounds)
	}
	for i, p := range recs[:rounds] {
		if p.Rounds != i+1 {
			t.Fatalf("record %d is round %d, want %d", i, p.Rounds, i+1)
		}
	}
	if last := recs[rounds]; last.Rounds != rounds || last.Samples != recs[rounds-1].Samples {
		t.Errorf("final snapshot %+v does not repeat round %d", last, rounds)
	}
	if hw := recs[0].HalfWidth; hw != -1 {
		t.Errorf("first record's half-width = %g, want -1 (unbounded)", hw)
	}
}
