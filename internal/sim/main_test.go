package sim

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain runs the package's tests and then fails the run if a
// goroutine is still running this package's code: a Collect joins the
// helper that settles its batches beside the trajectory before it
// returns or panics, on every exit.
func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if leaked := simGoroutines(time.Minute); leaked != "" {
			fmt.Fprintf(os.Stderr, "goroutines still running repro/internal/sim code after the tests:\n\n%s\n", leaked)
			code = 1
		}
	}
	os.Exit(code)
}

// simGoroutines returns the stacks of the goroutines, other than the
// caller's, with a frame in this package, polling until there are none
// or bound has passed. The bound only lets exiting goroutines finish;
// it is a hang guard, not a speed assertion.
func simGoroutines(bound time.Duration) string {
	deadline := time.Now().Add(bound)
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		var leaked []string
		// The caller's own goroutine comes first; skip it.
		for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
			if strings.Contains(g, "repro/internal/sim.") {
				leaked = append(leaked, g)
			}
		}
		if len(leaked) == 0 || time.Now().After(deadline) {
			return strings.Join(leaked, "\n\n")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
