package sim

import (
	"math"
	"testing"

	"repro/internal/compile"
	"repro/internal/delay"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// FuzzCompile feeds arbitrary ISCAS89 ".bench" text through the parser
// and, whenever a circuit results, through the compiler and the
// compiled-vs-packed differential battery (mixed hidden and sampled
// steps of every flavour), asserting the compiled session agrees with
// the interpreted packed session on every lane and that nothing panics
// on degenerate shapes — constant cones, buffer chains, latches fed by
// latches, unused inputs. The width byte picks the session's lane count
// from 1 to CompiledMaxLanes, so every row width from one word to the
// run-batched eight is fuzzed; above 64 lanes packed sessions tile the
// reference. It then collects two short trials with a compiled Session
// and a ScalarSession, zero-delay and general-delay with covariates,
// forces an all-one latch state and an alternating input pattern and
// takes one StepSampled, and requires the same sample bits.
func FuzzCompile(f *testing.F) {
	f.Add("INPUT(a)\nOUTPUT(z)\nz = AND(a, a)\n", byte(0))
	f.Add("INPUT(a)\nOUTPUT(z)\nq = DFF(d)\nd = NOT(q)\nz = OR(a, q)\n", byte(1))
	f.Add("INPUT(a)\nOUTPUT(z)\nc0 = CONST0()\nb = BUF(c0)\nq = DFF(b)\nz = XOR(a, q)\n", byte(2))
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq1 = DFF(q2)\nq2 = DFF(q1)\nz = NAND(a, XNORg)\nXNORg = XNOR(b, q1)\n", byte(3))
	f.Add("INPUT(a)\nOUTPUT(z)\nc1 = CONST1()\nz = XOR(a, c1)\nq = DFF(z)\n", byte(64))
	f.Add("INPUT(a)\nINPUT(b)\nOUTPUT(z)\nq = DFF(z)\nx = NOR(a, b, q)\nz = XNOR(x, a, q)\n", byte(255))
	f.Fuzz(func(t *testing.T, text string, width byte) {
		c, err := netlist.ParseBenchString("fuzz", text)
		if err != nil {
			t.Skip()
		}
		// Compile must handle anything the parser accepts.
		u := compile.Compile(c)
		if u.Full == nil || u.Step == nil {
			t.Fatal("Compile returned nil program")
		}
		lanes := 1 + int(width)*(CompiledMaxLanes-1)/255
		diffCompiledPacked(t, c, lanes, 6, 100, int64(width))
		weights := make([]float64, c.NumNodes())
		for i := range weights {
			weights[i] = 1 + float64(i%3)
		}
		dt := delay.BuildTable(c, delay.DefaultFanoutLoaded())
		for _, gd := range []bool{false, true} {
			var table *delay.Table
			var engine PowerEngine = NewZeroDelayToggle(c)
			if gd {
				table, engine = dt, NewEventDriven(c, dt)
			}
			src := func() vectors.Source { return vectors.NewIID(len(c.Inputs), 0.5, 7) }
			s := NewScalarSession(c, engine, src(), weights)
			tr := NewSession(c, table, src(), weights)
			for trial, k := range []int{0, 2} {
				var sCov, tCov []float64
				if gd {
					sCov, tCov = []float64{}, []float64{}
				}
				sx, sc := s.Collect(k, 5, nil, sCov, nil)
				tx, tc := tr.Collect(k, 5, nil, tCov, nil)
				for i := range sx {
					if math.Float64bits(sx[i]) != math.Float64bits(tx[i]) {
						t.Fatalf("gd=%v trial %d sample %d: compiled %v, scalar %v", gd, trial, i, tx[i], sx[i])
					}
				}
				for i := range sc {
					if math.Float64bits(sc[i]) != math.Float64bits(tc[i]) {
						t.Fatalf("gd=%v trial %d covariate %d: compiled %v, scalar %v", gd, trial, i, tc[i], sc[i])
					}
				}
			}
			q := make([]bool, len(c.Latches))
			for i := range q {
				q[i] = true
			}
			pins := make([]bool, len(c.Inputs))
			for i := range pins {
				pins[i] = i%2 == 0
			}
			s.SetState(q)
			s.SetPins(pins)
			tr.SetState(q)
			tr.SetPins(pins)
			if x, want := tr.StepSampled(nil), s.StepSampled(nil); math.Float64bits(x) != math.Float64bits(want) {
				t.Fatalf("gd=%v after SetState: StepSampled %v, scalar %v", gd, x, want)
			}
		}
	})
}
