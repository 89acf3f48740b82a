package compile

import "fmt"

// opcode identifies one word-level instruction. Two-operand gates have
// dedicated opcodes (the common case in technology-mapped netlists);
// wider gates use the n-ary forms, which read their operand slots from
// the program's shared args table.
type opcode uint8

const (
	opCopy  opcode = iota // dst = a          (BUF, or a gate reduced to one operand)
	opNot                 // dst = ^a
	opAnd2                // dst = a & b
	opNand2               // dst = ^(a & b)
	opOr2                 // dst = a | b
	opNor2                // dst = ^(a | b)
	opXor2                // dst = a ^ b
	opXnor2               // dst = ^(a ^ b)
	opAndN                // dst = &{args}
	opNandN               // dst = ^&{args}
	opOrN                 // dst = |{args}
	opNorN                // dst = ^|{args}
	opXorN                // dst = ^^{args} (parity)
	opXnorN               // dst = ^parity{args}
	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	"copy", "not", "and2", "nand2", "or2", "nor2", "xor2", "xnor2",
	"andN", "nandN", "orN", "norN", "xorN", "xnorN",
}

func (o opcode) String() string {
	if int(o) < len(opcodeNames) {
		return opcodeNames[o]
	}
	return fmt.Sprintf("opcode(%d)", uint8(o))
}

// inst is one straight-line instruction. dst and the operands are
// register-file row indices; a row is W consecutive words at execution
// time. n-ary forms keep (off, n) into Program.Args instead of (a, b).
type inst struct {
	op   opcode
	dst  int32
	a, b int32 // 1- and 2-operand forms
	off  int32 // n-ary: offset into Args
	n    int32 // n-ary: operand count
}

// Program is a straight-line word-level program over a register file of
// Slots rows. The caller picks the row width W (words per row) at
// execution time; all state arrays are laid out row-major, so row s is
// vals[s*W : (s+1)*W].
type Program struct {
	// Slots is the register-file height in rows.
	Slots int
	// In[i] is the row holding primary input i; Q[i] the row holding
	// latch output i. The caller writes these rows before Exec.
	In, Q []int32
	// D[i] is the row holding latch i's next-state (D-pin) value after
	// Exec.
	D []int32
	// Const0 and Const1 list rows whose value is invariant: all-zero and
	// all-one respectively. InitConsts writes them once; no instruction
	// ever writes a constant row.
	Const0, Const1 []int32
	// Args is the shared operand table of the n-ary instructions.
	Args []int32

	code []inst
	// levels[i] is the logic level of code[i]'s destination node. The
	// compiler emits in level-contiguous order, so levels is
	// nondecreasing, and sorts each level run by opcode (see batched.go).
	// Instructions of one level are write/read-disjoint from each other
	// (operands come from strictly lower levels, and the Step allocator
	// recycles slots only across level boundaries), which is what makes
	// that sort legal.
	levels []int32
}

// NumInsts returns the instruction count.
func (p *Program) NumInsts() int { return len(p.code) }

// Stats summarizes a compiled program for reports and tests.
type Stats struct {
	Insts     int // instruction count
	Slots     int // register-file rows
	MaxArity  int // widest n-ary instruction
	NaryInsts int // instructions using the args table
}

// Stats returns the program's summary.
func (p *Program) Stats() Stats {
	st := Stats{Insts: len(p.code), Slots: p.Slots}
	for i := range p.code {
		in := &p.code[i]
		if in.n > 0 {
			st.NaryInsts++
			if int(in.n) > st.MaxArity {
				st.MaxArity = int(in.n)
			}
		}
	}
	return st
}

// InitConsts writes the constant rows of a w-wide register file. Called
// once per value array; Exec never touches constant rows.
func (p *Program) InitConsts(vals []uint64, w int) {
	for _, s := range p.Const0 {
		row := vals[int(s)*w : (int(s)+1)*w]
		for k := range row {
			row[k] = 0
		}
	}
	for _, s := range p.Const1 {
		row := vals[int(s)*w : (int(s)+1)*w]
		for k := range row {
			row[k] = ^uint64(0)
		}
	}
}

// Exec runs the program over a register file of w-word rows. vals must
// hold Slots*w words with the In and Q rows (and, once, the constant
// rows via InitConsts) already written. Execution is a single pass in
// emission order — level by level, each level's instructions grouped by
// opcode — dispatching once per same-opcode run at the full 8-word
// width and once per instruction otherwise. Bit j of word k of a row is
// the value of that signal in lane k*64+j, and lanes never mix — every
// op is a pure per-word bitwise function.
func (p *Program) Exec(vals []uint64, w int) {
	if w == 8 {
		execRuns8(p.code, p.Args, vals)
		return
	}
	execCode(p.code, p.Args, vals, w)
}

// execCode runs an instruction sequence over a register file of w-word
// rows, dispatching once per instruction.
func execCode(code []inst, args []int32, vals []uint64, w int) {
	if w == 1 {
		execCode1(code, args, vals)
		return
	}
	for i := range code {
		in := &code[i]
		dst := vals[int(in.dst)*w : (int(in.dst)+1)*w]
		switch in.op {
		case opCopy:
			copy(dst, vals[int(in.a)*w:(int(in.a)+1)*w])
		case opNot:
			a := vals[int(in.a)*w : (int(in.a)+1)*w]
			for k := range dst {
				dst[k] = ^a[k]
			}
		case opAnd2:
			a := vals[int(in.a)*w : (int(in.a)+1)*w]
			b := vals[int(in.b)*w : (int(in.b)+1)*w]
			for k := range dst {
				dst[k] = a[k] & b[k]
			}
		case opNand2:
			a := vals[int(in.a)*w : (int(in.a)+1)*w]
			b := vals[int(in.b)*w : (int(in.b)+1)*w]
			for k := range dst {
				dst[k] = ^(a[k] & b[k])
			}
		case opOr2:
			a := vals[int(in.a)*w : (int(in.a)+1)*w]
			b := vals[int(in.b)*w : (int(in.b)+1)*w]
			for k := range dst {
				dst[k] = a[k] | b[k]
			}
		case opNor2:
			a := vals[int(in.a)*w : (int(in.a)+1)*w]
			b := vals[int(in.b)*w : (int(in.b)+1)*w]
			for k := range dst {
				dst[k] = ^(a[k] | b[k])
			}
		case opXor2:
			a := vals[int(in.a)*w : (int(in.a)+1)*w]
			b := vals[int(in.b)*w : (int(in.b)+1)*w]
			for k := range dst {
				dst[k] = a[k] ^ b[k]
			}
		case opXnor2:
			a := vals[int(in.a)*w : (int(in.a)+1)*w]
			b := vals[int(in.b)*w : (int(in.b)+1)*w]
			for k := range dst {
				dst[k] = ^(a[k] ^ b[k])
			}
		default:
			ops := args[in.off : in.off+in.n]
			copy(dst, vals[int(ops[0])*w:(int(ops[0])+1)*w])
			switch in.op {
			case opAndN, opNandN:
				for _, s := range ops[1:] {
					b := vals[int(s)*w : (int(s)+1)*w]
					for k := range dst {
						dst[k] &= b[k]
					}
				}
			case opOrN, opNorN:
				for _, s := range ops[1:] {
					b := vals[int(s)*w : (int(s)+1)*w]
					for k := range dst {
						dst[k] |= b[k]
					}
				}
			case opXorN, opXnorN:
				for _, s := range ops[1:] {
					b := vals[int(s)*w : (int(s)+1)*w]
					for k := range dst {
						dst[k] ^= b[k]
					}
				}
			}
			switch in.op {
			case opNandN, opNorN, opXnorN:
				for k := range dst {
					dst[k] = ^dst[k]
				}
			}
		}
	}
}

// execCode1 is the single-word specialization: with one word per row
// the per-op slicing and inner loops collapse to direct indexing, which
// keeps the compiled backend competitive at 64 lanes and below.
func execCode1(code []inst, args []int32, vals []uint64) {
	for i := range code {
		in := &code[i]
		switch in.op {
		case opCopy:
			vals[in.dst] = vals[in.a]
		case opNot:
			vals[in.dst] = ^vals[in.a]
		case opAnd2:
			vals[in.dst] = vals[in.a] & vals[in.b]
		case opNand2:
			vals[in.dst] = ^(vals[in.a] & vals[in.b])
		case opOr2:
			vals[in.dst] = vals[in.a] | vals[in.b]
		case opNor2:
			vals[in.dst] = ^(vals[in.a] | vals[in.b])
		case opXor2:
			vals[in.dst] = vals[in.a] ^ vals[in.b]
		case opXnor2:
			vals[in.dst] = ^(vals[in.a] ^ vals[in.b])
		default:
			ops := args[in.off : in.off+in.n]
			v := vals[ops[0]]
			switch in.op {
			case opAndN, opNandN:
				for _, s := range ops[1:] {
					v &= vals[s]
				}
			case opOrN, opNorN:
				for _, s := range ops[1:] {
					v |= vals[s]
				}
			case opXorN, opXnorN:
				for _, s := range ops[1:] {
					v ^= vals[s]
				}
			}
			switch in.op {
			case opNandN, opNorN, opXnorN:
				v = ^v
			}
			vals[in.dst] = v
		}
	}
}
