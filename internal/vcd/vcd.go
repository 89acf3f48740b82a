package vcd

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Writer emits a VCD file for a subset of a circuit's nodes.
type Writer struct {
	w        *bufio.Writer
	c        *netlist.Circuit
	ids      map[netlist.NodeID]string // VCD identifier codes
	watched  []netlist.NodeID
	period   delay.Picoseconds
	cycle    int64
	lastTime int64 // last VCD timestamp emitted
	headered bool
	err      error
}

// New creates a VCD writer for the given nodes (nil = all nodes).
// period is the clock period in picoseconds; each simulated cycle
// occupies one period on the VCD time axis with 1 ps resolution.
func New(w io.Writer, c *netlist.Circuit, nodes []netlist.NodeID, period delay.Picoseconds) *Writer {
	if period <= 0 {
		period = 50_000 // the paper's 20 MHz clock
	}
	if nodes == nil {
		nodes = make([]netlist.NodeID, len(c.Nodes))
		for i := range c.Nodes {
			nodes[i] = netlist.NodeID(i)
		}
	}
	watched := append([]netlist.NodeID(nil), nodes...)
	sort.Slice(watched, func(i, j int) bool { return watched[i] < watched[j] })
	v := &Writer{
		w:       bufio.NewWriter(w),
		c:       c,
		ids:     make(map[netlist.NodeID]string, len(watched)),
		watched: watched,
		period:  period,
	}
	for i, id := range watched {
		v.ids[id] = idCode(i)
	}
	return v
}

// idCode produces the compact printable VCD identifier for index i
// (base-94 over '!'..'~').
func idCode(i int) string {
	var buf []byte
	for {
		buf = append(buf, byte('!'+i%94))
		i /= 94
		if i == 0 {
			break
		}
		i--
	}
	return string(buf)
}

// Header writes the declaration section and the initial values. It must
// be called once, after the session has settled its initial state.
func (v *Writer) Header(vals []bool) error {
	if v.headered {
		return fmt.Errorf("vcd: Header called twice")
	}
	fmt.Fprintf(v.w, "$date %s $end\n", time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintf(v.w, "$version repro/dipe gate-level simulator $end\n")
	fmt.Fprintf(v.w, "$timescale 1ps $end\n")
	fmt.Fprintf(v.w, "$scope module %s $end\n", sanitize(v.c.Name))
	for _, id := range v.watched {
		fmt.Fprintf(v.w, "$var wire 1 %s %s $end\n", v.ids[id], sanitize(v.c.Nodes[id].Name))
	}
	fmt.Fprintf(v.w, "$upscope $end\n$enddefinitions $end\n")
	fmt.Fprintf(v.w, "$dumpvars\n")
	for _, id := range v.watched {
		fmt.Fprintf(v.w, "%s%s\n", bit(vals[id]), v.ids[id])
	}
	fmt.Fprintf(v.w, "$end\n")
	v.headered = true
	v.lastTime = -1
	return v.w.Flush()
}

// Attach subscribes the writer to the session's transitions
// (sim.Session.SetObserver): every transition of a watched node during
// sampled cycles is dumped. Step the session with StepSampled, which
// settles each cycle before it returns, and call BeginCycle before each
// step so transitions land in the right time slot. Like SetObserver,
// it panics on a zero-delay session — waveform observation is a
// timed-simulation feature.
func (v *Writer) Attach(s *sim.Session) {
	s.SetObserver(func(id netlist.NodeID, t delay.Picoseconds, val bool) {
		code, ok := v.ids[id]
		if !ok || v.err != nil {
			return
		}
		ts := (v.cycle-1)*int64(v.period) + int64(t)
		if ts != v.lastTime {
			if _, err := fmt.Fprintf(v.w, "#%d\n", ts); err != nil {
				v.err = err
				return
			}
			v.lastTime = ts
		}
		if _, err := fmt.Fprintf(v.w, "%s%s\n", bit(val), code); err != nil {
			v.err = err
		}
	})
}

// BeginCycle advances the VCD time axis by one clock period; call it
// immediately before each sampled session step.
func (v *Writer) BeginCycle() { v.cycle++ }

// Close flushes buffered output and reports any deferred write error.
func (v *Writer) Close() error {
	if v.err != nil {
		return v.err
	}
	return v.w.Flush()
}

// Cycles returns how many cycles have been begun.
func (v *Writer) Cycles() int64 { return v.cycle }

func bit(b bool) string {
	if b {
		return "1"
	}
	return "0"
}

// sanitize replaces characters VCD identifiers dislike.
func sanitize(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch c {
		case ' ', '\t', '$':
			out[i] = '_'
		}
	}
	return string(out)
}
