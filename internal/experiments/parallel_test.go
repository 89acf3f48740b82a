package experiments

import (
	"testing"
)

// TestTable2ParallelMatchesSerial: the aggregate rows must be identical
// regardless of the parallelism level, because runs are seeded per index
// and aggregated in order.
func TestTable2ParallelMatchesSerial(t *testing.T) {
	base := tinyConfig()
	base.Circuits = []string{"s27"}
	base.Runs = 6

	serial := base
	serial.Parallel = 1
	a, err := Table2(serial)
	if err != nil {
		t.Fatal(err)
	}
	par := base
	par.Parallel = 4
	b, err := Table2(par)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatalf("parallel row differs from serial:\n%+v\n%+v", a[0], b[0])
	}
}

// TestTable2ParallelRace is meaningful under -race: concurrent sessions
// must share nothing mutable.
func TestTable2ParallelRace(t *testing.T) {
	cfg := tinyConfig()
	cfg.Circuits = []string{"s298"}
	cfg.Runs = 8
	cfg.Parallel = 8
	if _, err := Table2(cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTable1Parallel: Table1 over the bit-parallel estimator produces
// sane rows (the serial path is covered by the existing tests).
func TestTable1Parallel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Circuits = []string{"s27"}
	cfg.RefCycles = func(int) int { return 5_000 }
	cfg.Opts.Replications = 8
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Estimate <= 0 {
		t.Fatalf("bad rows: %+v", rows)
	}
	if rows[0].ErrPct > 25 {
		t.Fatalf("parallel estimate off by %.1f%% from reference", rows[0].ErrPct)
	}
}
