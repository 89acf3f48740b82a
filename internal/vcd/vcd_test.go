package vcd

import (
	"strings"
	"testing"

	"repro/internal/bench89"
	"repro/internal/delay"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
	"repro/internal/vectors"
)

func newSession(t *testing.T, c *netlist.Circuit, seed int64) *sim.Session {
	t.Helper()
	w := make([]float64, c.NumNodes())
	for i := range w {
		w[i] = 1
	}
	return sim.NewSession(c, delay.BuildTable(c, delay.DefaultFanoutLoaded()),
		vectors.NewIID(len(c.Inputs), 0.5, seed), w)
}

func TestWriterProducesWellFormedVCD(t *testing.T) {
	c := bench89.S27()
	s := newSession(t, c, 1)
	var sb strings.Builder
	w := New(&sb, c, nil, 50_000)
	if err := w.Header(s.Values()); err != nil {
		t.Fatal(err)
	}
	w.Attach(s)
	for i := 0; i < 5; i++ {
		w.BeginCycle()
		s.StepSampled(nil)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"$timescale 1ps $end",
		"$scope module s27 $end",
		"$enddefinitions $end",
		"$dumpvars",
		"$var wire 1 ! ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("VCD missing %q", want)
		}
	}
	// One $var per node.
	if got := strings.Count(out, "$var wire"); got != c.NumNodes() {
		t.Errorf("%d $var lines, want %d", got, c.NumNodes())
	}
	// Timestamps must be monotonically increasing.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		var ts int64
		for _, ch := range line[1:] {
			ts = ts*10 + int64(ch-'0')
		}
		if ts <= last {
			t.Fatalf("timestamp %d not increasing (prev %d)", ts, last)
		}
		last = ts
	}
	if w.Cycles() != 5 {
		t.Errorf("Cycles = %d", w.Cycles())
	}
}

func TestWriterSubsetOnly(t *testing.T) {
	c := bench89.S27()
	s := newSession(t, c, 2)
	watch := []netlist.NodeID{c.Lookup("G17"), c.Lookup("G11")}
	var sb strings.Builder
	w := New(&sb, c, watch, 50_000)
	if err := w.Header(s.Values()); err != nil {
		t.Fatal(err)
	}
	w.Attach(s)
	for i := 0; i < 20; i++ {
		w.BeginCycle()
		s.StepSampled(nil)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if got := strings.Count(out, "$var wire"); got != 2 {
		t.Errorf("%d $var lines, want 2", got)
	}
	if !strings.Contains(out, "G17") || !strings.Contains(out, "G11") {
		t.Error("watched node names missing")
	}
	if strings.Contains(out, "G14") {
		t.Error("unwatched node dumped")
	}
}

func TestHeaderTwiceFails(t *testing.T) {
	c := bench89.S27()
	s := newSession(t, c, 3)
	var sb strings.Builder
	w := New(&sb, c, nil, 0) // 0 -> default period
	if err := w.Header(s.Values()); err != nil {
		t.Fatal(err)
	}
	if err := w.Header(s.Values()); err == nil {
		t.Fatal("second Header accepted")
	}
}

func TestIDCodeUniqueness(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 10_000; i++ {
		code := idCode(i)
		if code == "" {
			t.Fatalf("empty code at %d", i)
		}
		if seen[code] {
			t.Fatalf("duplicate code %q at %d", code, i)
		}
		seen[code] = true
		for _, ch := range code {
			if ch < '!' || ch > '~' {
				t.Fatalf("unprintable code byte %q at %d", ch, i)
			}
		}
	}
}

func TestSanitize(t *testing.T) {
	if got := sanitize("a b$c\td"); got != "a_b_c_d" {
		t.Fatalf("sanitize = %q", got)
	}
}

func TestGlitchVisibleInDump(t *testing.T) {
	// The XOR-chain glitch from the simulator tests must appear as two
	// value changes inside one cycle slot.
	c := netlist.NewCircuit("glitch")
	a, _ := c.AddNode("A", logic.Input)
	b1, _ := c.AddNode("B1", logic.Not, a)
	b2, _ := c.AddNode("B2", logic.Not, b1)
	y, _ := c.AddNode("Y", logic.Xor, b2, a)
	_ = c.MarkOutput(y)
	if err := c.Freeze(); err != nil {
		t.Fatal(err)
	}
	wts := make([]float64, c.NumNodes())
	s := sim.NewSession(c, delay.BuildTable(c, delay.Unit{}),
		&alternating{}, wts)
	var sb strings.Builder
	w := New(&sb, c, []netlist.NodeID{y}, 1_000)
	if err := w.Header(s.Values()); err != nil {
		t.Fatal(err)
	}
	w.Attach(s)
	w.BeginCycle()
	s.StepSampled(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// After $dumpvars: two changes of Y ("1!"... then "0!").
	body := out[strings.Index(out, "$end\n#"):]
	if strings.Count(body, "1!")+strings.Count(body, "0!") != 2 {
		t.Fatalf("expected 2 glitch transitions in dump:\n%s", out)
	}
}

// alternating drives a single input 1,0,1,0,...
type alternating struct{ v bool }

func (a *alternating) Next(dst []bool) { a.v = !a.v; dst[0] = a.v }
func (a *alternating) Width() int      { return 1 }
func (a *alternating) Name() string    { return "alternating" }

// TestAttachRequiresEventDriven: waveform observation is a
// timed-simulation feature, so a zero-delay session has nothing to
// attach to.
func TestAttachRequiresEventDriven(t *testing.T) {
	c := bench89.S27()
	s := sim.NewSession(c, nil, vectors.NewIID(len(c.Inputs), 0.5, 1), make([]float64, c.NumNodes()))
	defer func() {
		if recover() == nil {
			t.Fatal("Attach on a zero-delay session did not panic")
		}
	}()
	New(&strings.Builder{}, c, nil, 50_000).Attach(s)
}
