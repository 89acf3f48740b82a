package compile

// Opcode-batched execution.
//
// Profiling the linear interpreter on s38417-class programs shows the
// per-instruction switch, not memory traffic, is the dominant cost: gate
// types arrive in near-random order, so the 14-way dispatch branch
// mispredicts on most instructions (~5-6 ns each on a desktop core,
// comparable to the bitwise work itself). Instructions of one logic
// level are write/read-disjoint — operands come from strictly lower
// levels, and the Step allocator recycles slots only across level
// boundaries — so within a level they may execute in any order. The
// compiler therefore emits each level's instructions sorted by opcode:
// the dispatch stream becomes predictable, and at the full 512-lane
// width the executor dispatches once per same-opcode run with an
// unrolled row kernel instead of once per instruction. The per-lane
// results are unchanged: every op is a pure per-word bitwise function,
// and no instruction reads a row written by its own level.

// sortRunsByOpcode stable-sorts code by opcode within each level run.
// levels must align with code (levels[i] is code[i]'s level) and be
// nondecreasing; instructions of equal level and opcode keep their
// emission order.
func sortRunsByOpcode(code []inst, levels []int32) {
	var buckets [numOpcodes][]inst
	for lo := 0; lo < len(code); {
		hi := lo + 1
		for hi < len(code) && levels[hi] == levels[lo] {
			hi++
		}
		run := code[lo:hi]
		for op := range buckets {
			buckets[op] = buckets[op][:0]
		}
		for _, in := range run {
			buckets[in.op] = append(buckets[in.op], in)
		}
		k := 0
		for op := range buckets {
			for _, in := range buckets[op] {
				run[k] = in
				k++
			}
		}
		lo = hi
	}
}

// execRuns8 executes opcode-sorted code over a register file of 8-word
// rows (512 lanes, the compiled backend's full width), dispatching once
// per run of equal opcodes. Row accesses go through fixed-size array
// pointers, so each kernel body is a fully unrolled, bounds-check-free
// sequence of eight word ops. Bit-identical to execCode on the same
// code: only the dispatch structure differs.
func execRuns8(code []inst, args []int32, vals []uint64) {
	for i := 0; i < len(code); {
		op := code[i].op
		j := i + 1
		for j < len(code) && code[j].op == op {
			j++
		}
		run := code[i:j]
		i = j
		switch op {
		case opCopy:
			for k := range run {
				in := &run[k]
				*(*[8]uint64)(vals[int(in.dst)*8:]) = *(*[8]uint64)(vals[int(in.a)*8:])
			}
		case opNot:
			for k := range run {
				in := &run[k]
				a := (*[8]uint64)(vals[int(in.a)*8:])
				d := (*[8]uint64)(vals[int(in.dst)*8:])
				d[0], d[1], d[2], d[3] = ^a[0], ^a[1], ^a[2], ^a[3]
				d[4], d[5], d[6], d[7] = ^a[4], ^a[5], ^a[6], ^a[7]
			}
		case opAnd2:
			for k := range run {
				in := &run[k]
				a := (*[8]uint64)(vals[int(in.a)*8:])
				b := (*[8]uint64)(vals[int(in.b)*8:])
				d := (*[8]uint64)(vals[int(in.dst)*8:])
				d[0], d[1], d[2], d[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
				d[4], d[5], d[6], d[7] = a[4]&b[4], a[5]&b[5], a[6]&b[6], a[7]&b[7]
			}
		case opNand2:
			for k := range run {
				in := &run[k]
				a := (*[8]uint64)(vals[int(in.a)*8:])
				b := (*[8]uint64)(vals[int(in.b)*8:])
				d := (*[8]uint64)(vals[int(in.dst)*8:])
				d[0], d[1], d[2], d[3] = ^(a[0] & b[0]), ^(a[1] & b[1]), ^(a[2] & b[2]), ^(a[3] & b[3])
				d[4], d[5], d[6], d[7] = ^(a[4] & b[4]), ^(a[5] & b[5]), ^(a[6] & b[6]), ^(a[7] & b[7])
			}
		case opOr2:
			for k := range run {
				in := &run[k]
				a := (*[8]uint64)(vals[int(in.a)*8:])
				b := (*[8]uint64)(vals[int(in.b)*8:])
				d := (*[8]uint64)(vals[int(in.dst)*8:])
				d[0], d[1], d[2], d[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
				d[4], d[5], d[6], d[7] = a[4]|b[4], a[5]|b[5], a[6]|b[6], a[7]|b[7]
			}
		case opNor2:
			for k := range run {
				in := &run[k]
				a := (*[8]uint64)(vals[int(in.a)*8:])
				b := (*[8]uint64)(vals[int(in.b)*8:])
				d := (*[8]uint64)(vals[int(in.dst)*8:])
				d[0], d[1], d[2], d[3] = ^(a[0] | b[0]), ^(a[1] | b[1]), ^(a[2] | b[2]), ^(a[3] | b[3])
				d[4], d[5], d[6], d[7] = ^(a[4] | b[4]), ^(a[5] | b[5]), ^(a[6] | b[6]), ^(a[7] | b[7])
			}
		case opXor2:
			for k := range run {
				in := &run[k]
				a := (*[8]uint64)(vals[int(in.a)*8:])
				b := (*[8]uint64)(vals[int(in.b)*8:])
				d := (*[8]uint64)(vals[int(in.dst)*8:])
				d[0], d[1], d[2], d[3] = a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
				d[4], d[5], d[6], d[7] = a[4]^b[4], a[5]^b[5], a[6]^b[6], a[7]^b[7]
			}
		case opXnor2:
			for k := range run {
				in := &run[k]
				a := (*[8]uint64)(vals[int(in.a)*8:])
				b := (*[8]uint64)(vals[int(in.b)*8:])
				d := (*[8]uint64)(vals[int(in.dst)*8:])
				d[0], d[1], d[2], d[3] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2]), ^(a[3] ^ b[3])
				d[4], d[5], d[6], d[7] = ^(a[4] ^ b[4]), ^(a[5] ^ b[5]), ^(a[6] ^ b[6]), ^(a[7] ^ b[7])
			}
		default:
			// n-ary forms: the run still shares one opcode, so the reduce
			// loop below stays branch-predictable; the accumulator lives in
			// registers until the final store.
			for k := range run {
				in := &run[k]
				ops := args[in.off : in.off+in.n]
				acc := *(*[8]uint64)(vals[int(ops[0])*8:])
				switch op {
				case opAndN, opNandN:
					for _, s := range ops[1:] {
						b := (*[8]uint64)(vals[int(s)*8:])
						acc[0], acc[1], acc[2], acc[3] = acc[0]&b[0], acc[1]&b[1], acc[2]&b[2], acc[3]&b[3]
						acc[4], acc[5], acc[6], acc[7] = acc[4]&b[4], acc[5]&b[5], acc[6]&b[6], acc[7]&b[7]
					}
				case opOrN, opNorN:
					for _, s := range ops[1:] {
						b := (*[8]uint64)(vals[int(s)*8:])
						acc[0], acc[1], acc[2], acc[3] = acc[0]|b[0], acc[1]|b[1], acc[2]|b[2], acc[3]|b[3]
						acc[4], acc[5], acc[6], acc[7] = acc[4]|b[4], acc[5]|b[5], acc[6]|b[6], acc[7]|b[7]
					}
				case opXorN, opXnorN:
					for _, s := range ops[1:] {
						b := (*[8]uint64)(vals[int(s)*8:])
						acc[0], acc[1], acc[2], acc[3] = acc[0]^b[0], acc[1]^b[1], acc[2]^b[2], acc[3]^b[3]
						acc[4], acc[5], acc[6], acc[7] = acc[4]^b[4], acc[5]^b[5], acc[6]^b[6], acc[7]^b[7]
					}
				}
				switch op {
				case opNandN, opNorN, opXnorN:
					acc[0], acc[1], acc[2], acc[3] = ^acc[0], ^acc[1], ^acc[2], ^acc[3]
					acc[4], acc[5], acc[6], acc[7] = ^acc[4], ^acc[5], ^acc[6], ^acc[7]
				}
				*(*[8]uint64)(vals[int(in.dst)*8:]) = acc
			}
		}
	}
}
