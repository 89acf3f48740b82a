package logic

import "fmt"

// Kind identifies the function computed by a node in a gate-level netlist.
type Kind uint8

// Gate kinds. Input denotes a primary input (no fanin), DFF a D flip-flop
// (fanin[0] is the D pin; the node value is the latched output Q).
// Const0/Const1 are constant drivers occasionally found in benchmark
// netlists after optimization.
const (
	Input Kind = iota
	DFF
	Buf
	Not
	And
	Nand
	Or
	Nor
	Xor
	Xnor
	Const0
	Const1
	numKinds
)

var kindNames = [numKinds]string{
	Input:  "INPUT",
	DFF:    "DFF",
	Buf:    "BUF",
	Not:    "NOT",
	And:    "AND",
	Nand:   "NAND",
	Or:     "OR",
	Nor:    "NOR",
	Xor:    "XOR",
	Xnor:   "XNOR",
	Const0: "CONST0",
	Const1: "CONST1",
}

// String returns the ISCAS89 .bench spelling of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// ParseKind maps a .bench function name (case-insensitive) to a Kind.
// It returns false for unknown names.
func ParseKind(s string) (Kind, bool) {
	switch toUpper(s) {
	case "INPUT":
		return Input, true
	case "DFF", "FF", "LATCH":
		return DFF, true
	case "BUF", "BUFF", "BUFFER":
		return Buf, true
	case "NOT", "INV", "INVERTER":
		return Not, true
	case "AND":
		return And, true
	case "NAND":
		return Nand, true
	case "OR":
		return Or, true
	case "NOR":
		return Nor, true
	case "XOR":
		return Xor, true
	case "XNOR", "NXOR":
		return Xnor, true
	case "CONST0", "GND", "ZERO":
		return Const0, true
	case "CONST1", "VDD", "ONE":
		return Const1, true
	}
	return 0, false
}

// toUpper upper-cases ASCII letters without importing strings; benchmark
// identifiers are plain ASCII.
func toUpper(s string) string {
	b := []byte(s)
	changed := false
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
			changed = true
		}
	}
	if !changed {
		return s
	}
	return string(b)
}

// IsCombinational reports whether the kind computes a pure boolean
// function of its fanin (i.e., is neither an input, a constant, nor a
// state element).
func (k Kind) IsCombinational() bool {
	switch k {
	case Buf, Not, And, Nand, Or, Nor, Xor, Xnor:
		return true
	}
	return false
}

// IsSource reports whether the node's value is set externally to the
// combinational network: primary inputs, flip-flop outputs and constants.
func (k Kind) IsSource() bool {
	switch k {
	case Input, DFF, Const0, Const1:
		return true
	}
	return false
}

// MinFanin returns the minimum legal fanin count for the kind.
func (k Kind) MinFanin() int {
	switch k {
	case Input, Const0, Const1:
		return 0
	case DFF, Buf, Not:
		return 1
	default:
		return 2
	}
}

// MaxFanin returns the maximum legal fanin count for the kind, or -1 for
// unbounded.
func (k Kind) MaxFanin() int {
	switch k {
	case Input, Const0, Const1:
		return 0
	case DFF, Buf, Not:
		return 1
	default:
		return -1
	}
}

// Eval computes the gate function over the fanin values. It must only be
// called for combinational kinds and constants; Input and DFF values are
// owned by the simulator. Eval panics on a kind it cannot evaluate, which
// indicates a simulator bug rather than a data error.
func Eval(k Kind, in []bool) bool {
	switch k {
	case Buf:
		return in[0]
	case Not:
		return !in[0]
	case And:
		for _, v := range in {
			if !v {
				return false
			}
		}
		return true
	case Nand:
		for _, v := range in {
			if !v {
				return true
			}
		}
		return false
	case Or:
		for _, v := range in {
			if v {
				return true
			}
		}
		return false
	case Nor:
		for _, v := range in {
			if v {
				return false
			}
		}
		return true
	case Xor:
		x := false
		for _, v := range in {
			x = x != v
		}
		return x
	case Xnor:
		x := true
		for _, v := range in {
			x = x != v
		}
		return x
	case Const0:
		return false
	case Const1:
		return true
	}
	panic("logic: Eval called on non-combinational kind " + k.String())
}
