package netlist

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/logic"
)

// ParseBench reads a circuit in the ISCAS89 ".bench" format:
//
//	# comment
//	INPUT(G0)
//	OUTPUT(G17)
//	G5 = DFF(G10)
//	G8 = AND(G14, G6)
//
// Signals may be referenced before they are defined (DFF feedback), so
// parsing is two-pass: first collect declarations, then resolve names.
// The circuit is frozen before being returned.
func ParseBench(name string, r io.Reader) (*Circuit, error) {
	type rawGate struct {
		out  string
		fn   string
		args []string
		line int
	}
	var (
		inputs  []string
		outputs []string
		gates   []rawGate
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		switch {
		case isDecl(line, "INPUT"):
			arg, err := parseDecl(line, "INPUT")
			if err != nil {
				return nil, fmt.Errorf("netlist: %s line %d: %v", name, lineNo, err)
			}
			inputs = append(inputs, arg)
		case isDecl(line, "OUTPUT"):
			arg, err := parseDecl(line, "OUTPUT")
			if err != nil {
				return nil, fmt.Errorf("netlist: %s line %d: %v", name, lineNo, err)
			}
			outputs = append(outputs, arg)
		default:
			eq := strings.IndexByte(line, '=')
			if eq < 0 {
				return nil, fmt.Errorf("netlist: %s line %d: expected assignment, got %q", name, lineNo, line)
			}
			out := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			open := strings.IndexByte(rhs, '(')
			closeP := strings.LastIndexByte(rhs, ')')
			if open < 0 || closeP < open {
				return nil, fmt.Errorf("netlist: %s line %d: malformed gate expression %q", name, lineNo, rhs)
			}
			fn := strings.TrimSpace(rhs[:open])
			var args []string
			inner := strings.TrimSpace(rhs[open+1 : closeP])
			if inner != "" {
				for _, a := range strings.Split(inner, ",") {
					a = strings.TrimSpace(a)
					if a == "" {
						return nil, fmt.Errorf("netlist: %s line %d: empty argument in %q", name, lineNo, rhs)
					}
					args = append(args, a)
				}
			}
			if out == "" {
				return nil, fmt.Errorf("netlist: %s line %d: empty output name", name, lineNo)
			}
			gates = append(gates, rawGate{out: out, fn: fn, args: args, line: lineNo})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("netlist: reading %s: %v", name, err)
	}

	c := NewCircuit(name)
	for _, in := range inputs {
		if _, err := c.AddNode(in, logic.Input); err != nil {
			return nil, err
		}
	}
	for _, g := range gates {
		kind, ok := logic.ParseKind(g.fn)
		if !ok {
			return nil, fmt.Errorf("netlist: %s line %d: unknown gate function %q", name, g.line, g.fn)
		}
		if kind == logic.Input {
			return nil, fmt.Errorf("netlist: %s line %d: INPUT used as gate function", name, g.line)
		}
		if _, err := c.AddNode(g.out, kind); err != nil {
			return nil, fmt.Errorf("netlist: %s line %d: %v", name, g.line, err)
		}
	}
	// Second pass: resolve fanin names.
	for _, g := range gates {
		id := c.Lookup(g.out)
		fanin := make([]NodeID, len(g.args))
		for i, a := range g.args {
			f := c.Lookup(a)
			if f == InvalidNode {
				return nil, fmt.Errorf("netlist: %s line %d: gate %q references undefined signal %q",
					name, g.line, g.out, a)
			}
			fanin[i] = f
		}
		if err := c.SetFanin(id, fanin...); err != nil {
			return nil, err
		}
	}
	for _, o := range outputs {
		id := c.Lookup(o)
		if id == InvalidNode {
			return nil, fmt.Errorf("netlist: %s: OUTPUT(%s) references undefined signal", name, o)
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

// ParseBenchString is ParseBench over an in-memory netlist.
func ParseBenchString(name, text string) (*Circuit, error) {
	return ParseBench(name, strings.NewReader(text))
}

func parseDecl(line, kw string) (string, error) {
	rest := strings.TrimSpace(line[len(kw):])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return "", fmt.Errorf("malformed %s declaration %q", kw, line)
	}
	arg := strings.TrimSpace(rest[1 : len(rest)-1])
	if arg == "" {
		return "", fmt.Errorf("empty %s declaration", kw)
	}
	return arg, nil
}

// isDecl reports whether line is an INPUT or OUTPUT declaration (kw,
// any case, then an opening parenthesis). Anything else that starts with
// the keyword is an assignment to a gate whose name merely begins with
// it, like "OUTPUT_VALID = AND(A, B)".
func isDecl(line, kw string) bool {
	return hasPrefixFold(line, kw) && strings.HasPrefix(strings.TrimSpace(line[len(kw):]), "(")
}

func hasPrefixFold(s, prefix string) bool {
	if len(s) < len(prefix) {
		return false
	}
	return strings.EqualFold(s[:len(prefix)], prefix)
}

// WriteBench writes the circuit in .bench format. Node declaration order
// is preserved, so ParseBench(WriteBench(c)) reproduces the circuit
// structure exactly.
func WriteBench(w io.Writer, c *Circuit) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# %s\n", c.Name)
	st := c.ComputeStats()
	fmt.Fprintf(bw, "# %d inputs, %d outputs, %d D-type flipflops, %d gates\n",
		st.Inputs, st.Outputs, st.Latches, st.Gates)
	for _, in := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Nodes[in].Name)
	}
	for _, o := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Nodes[o].Name)
	}
	fmt.Fprintln(bw)
	for i := range c.Nodes {
		nd := &c.Nodes[i]
		if nd.Kind == logic.Input {
			continue
		}
		names := make([]string, len(nd.Fanin))
		for j, f := range nd.Fanin {
			names[j] = c.Nodes[f].Name
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", nd.Name, nd.Kind, strings.Join(names, ", "))
	}
	return bw.Flush()
}

// BenchString renders the circuit as .bench text.
func BenchString(c *Circuit) string {
	var sb strings.Builder
	// strings.Builder writes never fail.
	_ = WriteBench(&sb, c)
	return sb.String()
}
