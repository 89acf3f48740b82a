package main

import (
	"bytes"
	"strings"
	"testing"
)

// smoke runs the command body on the fast s27 configuration and returns
// stdout.
func smoke(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(append(args, "-q"), &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr:\n%s", args, err, stderr.String())
	}
	return stdout.String()
}

func TestRunTable1Smoke(t *testing.T) {
	out := smoke(t, "-table1", "-circuits", "s27", "-runs", "1")
	if !strings.Contains(out, "s27") {
		t.Fatalf("Table 1 output missing circuit row:\n%s", out)
	}
}

func TestRunTable1ParallelSmoke(t *testing.T) {
	out := smoke(t, "-table1", "-circuits", "s27", "-replications", "16")
	if !strings.Contains(out, "s27") {
		t.Fatalf("parallel Table 1 output missing circuit row:\n%s", out)
	}
}

func TestRunTable2Smoke(t *testing.T) {
	out := smoke(t, "-table2", "-circuits", "s27", "-runs", "3")
	if !strings.Contains(out, "s27") {
		t.Fatalf("Table 2 output missing circuit row:\n%s", out)
	}
}

func TestRunFig3Smoke(t *testing.T) {
	out := smoke(t, "-fig3", "-fig3-circuit", "s27", "-fig3-len", "300", "-fig3-max", "3", "-csv")
	if !strings.Contains(out, "interval") && !strings.Contains(out, ",") {
		t.Fatalf("Figure 3 CSV output unexpected:\n%s", out)
	}
}

func TestRunAblationStoppingSmoke(t *testing.T) {
	out := smoke(t, "-ablation", "stopping", "-circuits", "s27", "-runs", "1")
	if out == "" {
		t.Fatal("stopping ablation produced no output")
	}
}

func TestRunErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err == nil {
		t.Error("no campaign selected but run succeeded")
	}
	if err := run([]string{"-bogus"}, &stdout, &stderr); err == nil {
		t.Error("bad flag accepted")
	}
	if err := run([]string{"-ablation", "nope", "-q"}, &stdout, &stderr); err == nil {
		t.Error("unknown ablation accepted")
	}
	if err := run([]string{"-table1", "-circuits", "sNOPE", "-q"}, &stdout, &stderr); err == nil {
		t.Error("unknown circuit accepted")
	}
}

func TestRunModesSmoke(t *testing.T) {
	out := smoke(t, "-modes", "-circuits", "s27", "-replications", "16")
	if !strings.Contains(out, "s27") || !strings.Contains(out, "glitch") {
		t.Fatalf("modes output missing content:\n%s", out)
	}
}
