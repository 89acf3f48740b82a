package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/logic"
)

// benchReserved holds the characters the .bench grammar separates a
// line with. ParseBLIF rejects signal names that contain one.
const benchReserved = "=,()"

// ParseBLIF reads a circuit in Berkeley Logic Interchange Format, the
// native format of SIS-era logic synthesis (the toolchain of the paper's
// contemporaries). The supported subset is the structural core:
//
//	.model NAME
//	.inputs A B ...
//	.outputs Y ...
//	.latch IN OUT [type clock] [init]
//	.names IN... OUT          followed by single-output cover lines
//	.end
//
// Each .names cover is synthesized into this package's gate set on the
// fly: every cube becomes an AND of (possibly inverted) literals and the
// cubes are OR-ed; the constant covers become CONST0/CONST1. Covers with
// output value 0 define the complement and are inverted. Latch init
// values other than 0 are accepted and ignored (the simulators start
// from the all-zero state). Signal names may not contain the .bench
// separators "=,()", so every accepted circuit can be written out with
// WriteBench and parsed back.
func ParseBLIF(name string, r io.Reader) (*Circuit, error) {
	type cover struct {
		out   string
		ins   []string
		cubes []string // input parts
		vals  []byte   // output value per cube ('0' or '1')
		line  int
	}
	type latch struct {
		in, out string
		line    int
	}
	var (
		modelName string
		inputs    []string
		outputs   []string
		covers    []*cover
		latches   []latch
		current   *cover
	)

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	var pending string // for line continuations with '\'
	for sc.Scan() {
		lineNo++
		raw := sc.Text()
		if i := strings.IndexByte(raw, '#'); i >= 0 {
			raw = raw[:i]
		}
		raw = strings.TrimSpace(pending + " " + raw)
		pending = ""
		if strings.HasSuffix(raw, "\\") {
			pending = strings.TrimSuffix(raw, "\\")
			continue
		}
		if raw == "" {
			continue
		}
		fields := strings.Fields(raw)
		switch fields[0] {
		case ".model":
			if len(fields) >= 2 && modelName == "" {
				modelName = fields[1]
			}
			current = nil
		case ".inputs":
			inputs = append(inputs, fields[1:]...)
			current = nil
		case ".outputs":
			outputs = append(outputs, fields[1:]...)
			current = nil
		case ".latch":
			if len(fields) < 3 {
				return nil, fmt.Errorf("netlist: %s line %d: .latch needs input and output", name, lineNo)
			}
			latches = append(latches, latch{in: fields[1], out: fields[2], line: lineNo})
			current = nil
		case ".names":
			if len(fields) < 2 {
				return nil, fmt.Errorf("netlist: %s line %d: .names needs at least an output", name, lineNo)
			}
			cv := &cover{
				out:  fields[len(fields)-1],
				ins:  fields[1 : len(fields)-1],
				line: lineNo,
			}
			covers = append(covers, cv)
			current = cv
		case ".end":
			current = nil
		case ".exdc", ".subckt", ".gate", ".mlatch", ".clock":
			return nil, fmt.Errorf("netlist: %s line %d: unsupported BLIF construct %q", name, lineNo, fields[0])
		default:
			if strings.HasPrefix(fields[0], ".") {
				// Unknown dot-directives (e.g. .default_input_arrival)
				// are ignored, as SIS does for unknown annotations.
				current = nil
				continue
			}
			// Cover line for the current .names.
			if current == nil {
				return nil, fmt.Errorf("netlist: %s line %d: cover line outside .names", name, lineNo)
			}
			var inPart, outPart string
			switch len(fields) {
			case 1:
				// Constant cover: just the output value.
				inPart, outPart = "", fields[0]
			case 2:
				inPart, outPart = fields[0], fields[1]
			default:
				return nil, fmt.Errorf("netlist: %s line %d: malformed cover line %q", name, lineNo, raw)
			}
			if outPart != "0" && outPart != "1" {
				return nil, fmt.Errorf("netlist: %s line %d: cover output %q must be 0 or 1", name, lineNo, outPart)
			}
			if len(inPart) != len(current.ins) {
				return nil, fmt.Errorf("netlist: %s line %d: cube %q has %d literals for %d inputs",
					name, lineNo, inPart, len(inPart), len(current.ins))
			}
			current.cubes = append(current.cubes, inPart)
			current.vals = append(current.vals, outPart[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: reading %s: %v", name, err)
	}
	if modelName == "" {
		modelName = name
	}

	c := NewCircuit(modelName)
	// Every signal is declared here (cover and latch inputs, and outputs,
	// must name one of these), so checking these names checks them all.
	declare := func(sig string, k logic.Kind) error {
		if strings.ContainsAny(sig, benchReserved) {
			return fmt.Errorf("netlist: %s: signal name %q contains one of %q, which .bench reserves", name, sig, benchReserved)
		}
		_, err := c.AddNode(sig, k)
		return err
	}
	for _, in := range inputs {
		if err := declare(in, logic.Input); err != nil {
			return nil, err
		}
	}
	for _, l := range latches {
		if err := declare(l.out, logic.DFF); err != nil {
			return nil, err
		}
	}
	// Synthesize covers. Internal synthesis nodes get reserved names.
	aux := 0
	auxName := func() string {
		aux++
		return fmt.Sprintf("_blif%d", aux)
	}
	// First declare all cover outputs so cubes can reference any signal.
	for _, cv := range covers {
		if c.Lookup(cv.out) != InvalidNode {
			return nil, fmt.Errorf("netlist: %s line %d: signal %q defined twice", name, cv.line, cv.out)
		}
		// Kind fixed up in the synthesis pass below; BUF placeholder.
		if err := declare(cv.out, logic.Buf); err != nil {
			return nil, err
		}
	}
	for _, cv := range covers {
		outID := c.Lookup(cv.out)
		// Resolve input names.
		ins := make([]NodeID, len(cv.ins))
		for i, s := range cv.ins {
			id := c.Lookup(s)
			if id == InvalidNode {
				return nil, fmt.Errorf("netlist: %s line %d: cover references undefined signal %q", name, cv.line, s)
			}
			ins[i] = id
		}
		if err := synthesizeCover(c, outID, ins, cv.cubes, cv.vals, auxName); err != nil {
			return nil, fmt.Errorf("netlist: %s line %d: %v", name, cv.line, err)
		}
	}
	// Wire latch D pins.
	for _, l := range latches {
		out := c.Lookup(l.out)
		in := c.Lookup(l.in)
		if in == InvalidNode {
			return nil, fmt.Errorf("netlist: %s line %d: latch input %q undefined", name, l.line, l.in)
		}
		if err := c.SetFanin(out, in); err != nil {
			return nil, err
		}
	}
	for _, o := range outputs {
		id := c.Lookup(o)
		if id == InvalidNode {
			return nil, fmt.Errorf("netlist: %s: output %q undefined", name, o)
		}
		if err := c.MarkOutput(id); err != nil {
			return nil, err
		}
	}
	if err := c.Freeze(); err != nil {
		return nil, err
	}
	return c, nil
}

// synthesizeCover lowers one single-output cover onto the out node,
// creating auxiliary gates as needed. The cover's cubes must share the
// same output value (standard BLIF: a cover lists either the on-set or
// the off-set).
func synthesizeCover(c *Circuit, out NodeID, ins []NodeID, cubes []string, vals []byte, auxName func() string) error {
	if len(cubes) == 0 {
		// Empty cover: constant 0 (SIS convention).
		c.Nodes[out].Kind = logic.Const0
		return c.SetFanin(out)
	}
	onSet := vals[0] == '1'
	for _, v := range vals {
		if (v == '1') != onSet {
			return fmt.Errorf("cover mixes on-set and off-set cubes")
		}
	}
	// Constant covers: no inputs.
	if len(ins) == 0 {
		if onSet {
			c.Nodes[out].Kind = logic.Const1
		} else {
			c.Nodes[out].Kind = logic.Const0
		}
		return c.SetFanin(out)
	}

	// Build one AND term per cube (or simpler when degenerate).
	terms := make([]NodeID, 0, len(cubes))
	for _, cube := range cubes {
		lits := make([]NodeID, 0, len(cube))
		for i, ch := range cube {
			switch ch {
			case '1':
				lits = append(lits, ins[i])
			case '0':
				inv, err := c.AddNode(auxName(), logic.Not, ins[i])
				if err != nil {
					return err
				}
				lits = append(lits, inv)
			case '-':
				// don't care: literal absent
			default:
				return fmt.Errorf("bad cube character %q", ch)
			}
		}
		switch len(lits) {
		case 0:
			// All-don't-care cube: the function is constant true.
			if onSet {
				c.Nodes[out].Kind = logic.Const1
			} else {
				c.Nodes[out].Kind = logic.Const0
			}
			return c.SetFanin(out)
		case 1:
			terms = append(terms, lits[0])
		default:
			and, err := c.AddNode(auxName(), logic.And, lits...)
			if err != nil {
				return err
			}
			terms = append(terms, and)
		}
	}

	// OR the terms into the output node (inverted for off-set covers).
	switch {
	case len(terms) == 1 && onSet:
		c.Nodes[out].Kind = logic.Buf
		return c.SetFanin(out, terms[0])
	case len(terms) == 1:
		c.Nodes[out].Kind = logic.Not
		return c.SetFanin(out, terms[0])
	case onSet:
		c.Nodes[out].Kind = logic.Or
		return c.SetFanin(out, terms...)
	default:
		c.Nodes[out].Kind = logic.Nor
		return c.SetFanin(out, terms...)
	}
}

// ParseBLIFString is ParseBLIF over in-memory text.
func ParseBLIFString(name, text string) (*Circuit, error) {
	return ParseBLIF(name, strings.NewReader(text))
}
