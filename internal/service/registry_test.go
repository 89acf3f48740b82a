package service

import (
	"strings"
	"testing"
)

const toyBench = `
INPUT(A)
OUTPUT(Y)
Q = DFF(D)
D = XOR(A, Q)
Y = NOT(Q)
`

const toyBLIF = `
.model toyblif
.inputs a
.outputs q
.latch d q 0
.names a q d
10 1
01 1
.end
`

func TestRegistryHitMiss(t *testing.T) {
	r := NewRegistry(4)
	tb1, _, err := r.Resolve("s27")
	if err != nil {
		t.Fatal(err)
	}
	tb2, _, err := r.Resolve("s27")
	if err != nil {
		t.Fatal(err)
	}
	if tb1 != tb2 {
		t.Fatal("second lookup rebuilt the testbench instead of hitting the cache")
	}
	st := r.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.Cached != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 1 cached", st)
	}
}

func TestRegistryLRUEviction(t *testing.T) {
	r := NewRegistry(2)
	for _, name := range []string{"s27", "s298", "s386"} {
		if _, _, err := r.Resolve(name); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.Evictions != 1 || st.Cached != 2 {
		t.Fatalf("stats = %+v, want 1 eviction / 2 cached", st)
	}
	// s27 was evicted (least recently used): resolving it again is a miss.
	if _, _, err := r.Resolve("s27"); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Misses; got != 4 {
		t.Fatalf("misses = %d, want 4 (evicted circuit re-frozen)", got)
	}
	// s386 stayed resident: a hit.
	hits := r.Stats().Hits
	if _, _, err := r.Resolve("s386"); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats().Hits; got != hits+1 {
		t.Fatalf("hits = %d, want %d", got, hits+1)
	}
}

func TestRegistryUpload(t *testing.T) {
	r := NewRegistry(2)
	stats, err := r.Upload("toy", "bench", toyBench)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Inputs != 1 || stats.Latches != 1 {
		t.Fatalf("stats = %+v, want 1 input / 1 latch", stats)
	}
	if _, err := r.Upload("toyblif", "blif", toyBLIF); err != nil {
		t.Fatal(err)
	}
	// Upload installs into the cache, so the first Resolve is a hit.
	if _, _, err := r.Resolve("toy"); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Hits != 1 || st.Uploaded != 2 {
		t.Fatalf("stats = %+v, want 1 hit / 2 uploaded", st)
	}
	// Evict "toy" by touching two other designs, then resolve it again:
	// the retained source text must re-freeze transparently.
	if _, _, err := r.Resolve("s27"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Resolve("s298"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Resolve("toy"); err != nil {
		t.Fatalf("re-freezing evicted upload: %v", err)
	}

	names := r.Names()
	joined := strings.Join(names, ",")
	for _, want := range []string{"toy", "toyblif", "s27", "s1494"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("Names() = %v, missing %q", names, want)
		}
	}
}

func TestRegistryUploadErrors(t *testing.T) {
	r := NewRegistry(2)
	cases := []struct {
		name, format, text string
	}{
		{"", "bench", toyBench},          // empty name
		{"s298", "bench", toyBench},      // built-in collision
		{"bad", "bench", "GARBAGE(((("},  // malformed netlist
		{"bad2", "verilog", "module m;"}, // unknown format
	}
	for _, c := range cases {
		if _, err := r.Upload(c.name, c.format, c.text); err == nil {
			t.Errorf("Upload(%q, %q) succeeded, want error", c.name, c.format)
		}
	}
	if _, _, err := r.Resolve("sNOPE"); err == nil {
		t.Error("Resolve(sNOPE) succeeded, want error")
	}
}
