package logic

import (
	"testing"
	"testing/quick"
)

func TestEvalTruthTables(t *testing.T) {
	cases := []struct {
		kind Kind
		in   []bool
		want bool
	}{
		{Buf, []bool{false}, false},
		{Buf, []bool{true}, true},
		{Not, []bool{false}, true},
		{Not, []bool{true}, false},
		{And, []bool{true, true}, true},
		{And, []bool{true, false}, false},
		{And, []bool{false, false}, false},
		{And, []bool{true, true, true, true}, true},
		{And, []bool{true, true, true, false}, false},
		{Nand, []bool{true, true}, false},
		{Nand, []bool{false, true}, true},
		{Or, []bool{false, false}, false},
		{Or, []bool{false, true}, true},
		{Or, []bool{false, false, false, true}, true},
		{Nor, []bool{false, false}, true},
		{Nor, []bool{true, false}, false},
		{Xor, []bool{false, false}, false},
		{Xor, []bool{true, false}, true},
		{Xor, []bool{true, true}, false},
		{Xor, []bool{true, true, true}, true},
		{Xnor, []bool{false, false}, true},
		{Xnor, []bool{true, false}, false},
		{Xnor, []bool{true, true}, true},
		{Const0, nil, false},
		{Const1, nil, true},
	}
	for _, c := range cases {
		if got := Eval(c.kind, c.in); got != c.want {
			t.Errorf("Eval(%s, %v) = %v, want %v", c.kind, c.in, got, c.want)
		}
	}
}

func TestEvalPanicsOnInput(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Eval(Input, ...) did not panic")
		}
	}()
	Eval(Input, []bool{true})
}

func TestEvalPanicsOnDFF(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Eval(DFF, ...) did not panic")
		}
	}()
	Eval(DFF, []bool{true})
}

func TestParseKindRoundTrip(t *testing.T) {
	for k := Input; k < numKinds; k++ {
		got, ok := ParseKind(k.String())
		if !ok {
			t.Errorf("ParseKind(%q) not recognized", k.String())
			continue
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
}

func TestParseKindAliases(t *testing.T) {
	cases := map[string]Kind{
		"dff": DFF, "Dff": DFF, "FF": DFF, "latch": DFF,
		"buff": Buf, "BUFFER": Buf,
		"inv": Not, "NXOR": Xnor,
		"and": And, "nAnD": Nand,
		"vdd": Const1, "gnd": Const0,
	}
	for s, want := range cases {
		got, ok := ParseKind(s)
		if !ok || got != want {
			t.Errorf("ParseKind(%q) = %v,%v want %v", s, got, ok, want)
		}
	}
	if _, ok := ParseKind("MUX4"); ok {
		t.Errorf("ParseKind(MUX4) unexpectedly succeeded")
	}
}

func TestDeMorganDuality(t *testing.T) {
	// NAND(x) == NOT(AND(x)) and NOR(x) == NOT(OR(x)) for all widths 1..6.
	err := quick.Check(func(bits uint8, width uint8) bool {
		w := int(width%6) + 1
		in := make([]bool, w)
		for i := range in {
			in[i] = bits&(1<<i) != 0
		}
		return Eval(Nand, in) == !Eval(And, in) &&
			Eval(Nor, in) == !Eval(Or, in) &&
			Eval(Xnor, in) == !Eval(Xor, in)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestXorIsParity(t *testing.T) {
	err := quick.Check(func(bits uint8, width uint8) bool {
		w := int(width%8) + 1
		in := make([]bool, w)
		ones := 0
		for i := range in {
			in[i] = bits&(1<<i) != 0
			if in[i] {
				ones++
			}
		}
		return Eval(Xor, in) == (ones%2 == 1)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestKindPredicates(t *testing.T) {
	for k := Input; k < numKinds; k++ {
		comb := k.IsCombinational()
		src := k.IsSource()
		if comb && src {
			t.Errorf("%s is both combinational and source", k)
		}
		switch k {
		case Input, DFF, Const0, Const1:
			if !src {
				t.Errorf("%s should be a source", k)
			}
		default:
			if !comb {
				t.Errorf("%s should be combinational", k)
			}
		}
	}
}

func TestFaninBounds(t *testing.T) {
	if And.MinFanin() != 2 || And.MaxFanin() != -1 {
		t.Errorf("And fanin bounds = %d,%d", And.MinFanin(), And.MaxFanin())
	}
	if Not.MinFanin() != 1 || Not.MaxFanin() != 1 {
		t.Errorf("Not fanin bounds = %d,%d", Not.MinFanin(), Not.MaxFanin())
	}
	if Input.MinFanin() != 0 || Input.MaxFanin() != 0 {
		t.Errorf("Input fanin bounds = %d,%d", Input.MinFanin(), Input.MaxFanin())
	}
	if DFF.MinFanin() != 1 || DFF.MaxFanin() != 1 {
		t.Errorf("DFF fanin bounds = %d,%d", DFF.MinFanin(), DFF.MaxFanin())
	}
}

func TestControllingFixesOutput(t *testing.T) {
	// Property: with any input at the kind's controlling value (0 for
	// AND/NAND, 1 for OR/NOR), the output equals Eval(kind,
	// all-controlling) regardless of the other inputs.
	for k, cv := range map[Kind]bool{And: false, Nand: false, Or: true, Nor: true} {
		fixed := Eval(k, []bool{cv, cv})
		err := quick.Check(func(other bool) bool {
			return Eval(k, []bool{cv, other}) == fixed && Eval(k, []bool{other, cv}) == fixed
		}, nil)
		if err != nil {
			t.Errorf("%s: %v", k, err)
		}
	}
}
