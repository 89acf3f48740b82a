package compile

// Inst is the test view of one emitted instruction.
type Inst struct {
	Op    int     // opcode, in the order sortRunsByOpcode groups by
	Level int32   // logic level of the destination node
	Dst   int32   // destination row
	Reads []int32 // operand rows, in operand order
}

// Levels returns the program's per-instruction level sequence.
func (p *Program) Levels() []int32 { return p.levels }

// Insts returns the program's instructions in execution order.
func (p *Program) Insts() []Inst {
	out := make([]Inst, len(p.code))
	for i := range p.code {
		in := &p.code[i]
		v := Inst{Op: int(in.op), Level: p.levels[i], Dst: in.dst}
		switch {
		case in.n > 0:
			v.Reads = append(v.Reads, p.Args[in.off:in.off+in.n]...)
		case in.op == opCopy || in.op == opNot:
			v.Reads = []int32{in.a}
		default:
			v.Reads = []int32{in.a, in.b}
		}
		out[i] = v
	}
	return out
}

// ExecReference is the test oracle for Exec: it runs the program one
// instruction at a time with a scalar evaluator, executing each level
// run in reverse emission order. Instructions of one level are
// write/read-disjoint, so any order within a level is legal, and this
// pass must reproduce Exec's opcode-sorted, run-batched one exactly.
func (p *Program) ExecReference(vals []uint64, w int) {
	for lo := 0; lo < len(p.code); {
		hi := lo + 1
		for hi < len(p.code) && p.levels[hi] == p.levels[lo] {
			hi++
		}
		for i := hi - 1; i >= lo; i-- {
			in := &p.code[i]
			for k := 0; k < w; k++ {
				vals[int(in.dst)*w+k] = evalWord(in, p.Args, vals, w, k)
			}
		}
		lo = hi
	}
}

// evalWord evaluates word k of one instruction's destination row.
func evalWord(in *inst, args []int32, vals []uint64, w, k int) uint64 {
	ops := []int32{in.a, in.b}
	switch {
	case in.n > 0:
		ops = args[in.off : in.off+in.n]
	case in.op == opCopy || in.op == opNot:
		ops = ops[:1]
	}
	v := vals[int(ops[0])*w+k]
	for _, s := range ops[1:] {
		b := vals[int(s)*w+k]
		switch in.op {
		case opAnd2, opNand2, opAndN, opNandN:
			v &= b
		case opOr2, opNor2, opOrN, opNorN:
			v |= b
		case opXor2, opXnor2, opXorN, opXnorN:
			v ^= b
		}
	}
	switch in.op {
	case opNot, opNand2, opNor2, opXnor2, opNandN, opNorN, opXnorN:
		v = ^v
	}
	return v
}
