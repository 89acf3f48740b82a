package vectors

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// collectBit gathers n observations of bit `bit` from a source as 0/1.
func collectBit(s Source, bit, n int) []float64 {
	buf := make([]bool, s.Width())
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		s.Next(buf)
		if buf[bit] {
			out[i] = 1
		}
	}
	return out
}

func TestIIDSignalProbability(t *testing.T) {
	for _, p := range []float64{0.1, 0.5, 0.9} {
		s := NewIID(4, p, 1)
		xs := collectBit(s, 2, 20000)
		if m := stats.Mean(xs); math.Abs(m-p) > 0.02 {
			t.Errorf("p=%g: observed %g", p, m)
		}
	}
}

func TestIIDNoTemporalCorrelation(t *testing.T) {
	s := NewIID(1, 0.5, 2)
	xs := collectBit(s, 0, 50000)
	acf := stats.Autocorrelation(xs, 3)
	for k := 1; k <= 3; k++ {
		if math.Abs(acf[k]) > 0.02 {
			t.Errorf("iid acf[%d] = %g", k, acf[k])
		}
	}
}

func TestIIDDeterministicPerSeed(t *testing.T) {
	a := collectBit(NewIID(3, 0.5, 7), 1, 100)
	b := collectBit(NewIID(3, 0.5, 7), 1, 100)
	c := collectBit(NewIID(3, 0.5, 8), 1, 100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different streams")
		}
	}
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestIIDPerBitProbabilities(t *testing.T) {
	s := NewIIDPerBit([]float64{0.0, 1.0, 0.5}, 3)
	buf := make([]bool, 3)
	ones := 0
	for i := 0; i < 1000; i++ {
		s.Next(buf)
		if buf[0] {
			t.Fatal("p=0 bit fired")
		}
		if !buf[1] {
			t.Fatal("p=1 bit did not fire")
		}
		if buf[2] {
			ones++
		}
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("p=0.5 bit fired %d/1000", ones)
	}
}

func TestIIDRejectsBadProbability(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for p=1.5")
		}
	}()
	NewIID(2, 1.5, 1)
}

func TestLagCorrelatedStationaryProbability(t *testing.T) {
	for _, p := range []float64{0.3, 0.5, 0.7} {
		s := NewLagCorrelated(2, p, 0.8, 4)
		xs := collectBit(s, 0, 40000)
		if m := stats.Mean(xs); math.Abs(m-p) > 0.03 {
			t.Errorf("p=%g rho=0.8: observed mean %g", p, m)
		}
	}
}

func TestLagCorrelatedAutocorrelation(t *testing.T) {
	for _, rho := range []float64{0.0, 0.5, 0.9} {
		s := NewLagCorrelated(1, 0.5, rho, 5)
		xs := collectBit(s, 0, 60000)
		acf := stats.Autocorrelation(xs, 2)
		if math.Abs(acf[1]-rho) > 0.03 {
			t.Errorf("rho=%g: acf[1] = %g", rho, acf[1])
		}
		// Markov chain: acf[2] = rho^2.
		if math.Abs(acf[2]-rho*rho) > 0.03 {
			t.Errorf("rho=%g: acf[2] = %g, want %g", rho, acf[2], rho*rho)
		}
	}
}

func TestLagCorrelatedRejectsBadRho(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rho=1")
		}
	}()
	NewLagCorrelated(1, 0.5, 1.0, 1)
}

func TestSpatialWithinGroupCorrelation(t *testing.T) {
	s := NewSpatial(4, 2, 0.5, 0.0, 6)
	buf := make([]bool, 4)
	for i := 0; i < 1000; i++ {
		s.Next(buf)
		if buf[0] != buf[1] || buf[2] != buf[3] {
			t.Fatal("flip=0 group bits differ")
		}
	}
	// With flip, bits within a group should agree most of the time.
	s = NewSpatial(2, 2, 0.5, 0.1, 7)
	agree := 0
	for i := 0; i < 5000; i++ {
		s.Next(buf[:2])
		if buf[0] == buf[1] {
			agree++
		}
	}
	// P(agree) = (1-f)^2 + f^2 = 0.82.
	if rate := float64(agree) / 5000; math.Abs(rate-0.82) > 0.03 {
		t.Fatalf("agreement rate %g, want ~0.82", rate)
	}
}

func TestSpatialGroupsIndependent(t *testing.T) {
	s := NewSpatial(2, 1, 0.5, 0, 8)
	buf := make([]bool, 2)
	joint := 0
	n := 20000
	for i := 0; i < n; i++ {
		s.Next(buf)
		if buf[0] && buf[1] {
			joint++
		}
	}
	if rate := float64(joint) / float64(n); math.Abs(rate-0.25) > 0.02 {
		t.Fatalf("P(b0 & b1) = %g, want 0.25", rate)
	}
}

func TestTraceReplayAndWrap(t *testing.T) {
	tr, err := NewTrace([][]bool{{true, false}, {false, true}, {true, true}})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]bool, 2)
	want := [][]bool{{true, false}, {false, true}, {true, true}, {true, false}}
	for i, w := range want {
		tr.Next(buf)
		if buf[0] != w[0] || buf[1] != w[1] {
			t.Fatalf("pattern %d = %v, want %v", i, buf, w)
		}
	}
	if tr.Len() != 3 || tr.Width() != 2 {
		t.Fatalf("Len=%d Width=%d", tr.Len(), tr.Width())
	}
}

func TestTraceValidation(t *testing.T) {
	if _, err := NewTrace(nil); err == nil {
		t.Error("empty trace accepted")
	}
	if _, err := NewTrace([][]bool{{true}, {true, false}}); err == nil {
		t.Error("ragged trace accepted")
	}
}

func TestTraceCopiesPatterns(t *testing.T) {
	src := [][]bool{{true}}
	tr, _ := NewTrace(src)
	src[0][0] = false
	buf := make([]bool, 1)
	tr.Next(buf)
	if !buf[0] {
		t.Fatal("trace aliases caller's slice")
	}
}

func TestFactoriesProduceIndependentSources(t *testing.T) {
	for _, f := range []Factory{
		IIDFactory(2, 0.5),
		LagCorrelatedFactory(2, 0.5, 0.5),
	} {
		a := f(1)
		b := f(1)
		if a == b {
			t.Fatal("factory returned shared source")
		}
		// Same seed, same stream.
		xa := collectBit(a, 0, 50)
		xb := collectBit(b, 0, 50)
		for i := range xa {
			if xa[i] != xb[i] {
				t.Fatal("factory not deterministic per seed")
			}
		}
	}
}

func TestNames(t *testing.T) {
	names := []string{
		NewIID(1, 0.5, 1).Name(),
		NewLagCorrelated(1, 0.5, 0.5, 1).Name(),
		NewSpatial(2, 2, 0.5, 0.1, 1).Name(),
	}
	tr, _ := NewTrace([][]bool{{true}})
	names = append(names, tr.Name())
	for _, n := range names {
		if n == "" {
			t.Fatal("empty source name")
		}
	}
}
