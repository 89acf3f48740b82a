// Command dipe-worker is the stateless sampling node of a dipe
// estimation cluster: it serves the cluster worker protocol (install a
// circuit by provenance hash, stream a replication range's power
// samples) and holds no job state of its own. Point any number of them
// at a dipe-server running in cluster mode.
//
//	dipe-worker                                  # listen on :8416
//	dipe-worker -addr :9101                      # explicit port
//	dipe-worker -register http://coord:8415      # self-register with the coordinator
//	dipe-worker -register http://coord:8415 -advertise http://10.0.0.7:8416
//
// With -register, the worker POSTs its advertised URL to the
// coordinator's /v1/cluster/workers on startup (retrying until the
// coordinator answers), so bringing capacity online is one command.
// Without -advertise the worker advertises http://127.0.0.1:<port> —
// fine for single-host clusters, wrong across machines.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dipe-worker:", err)
		os.Exit(1)
	}
}

// run parses args, serves until the stop channel (or SIGINT/SIGTERM
// when stop is nil) fires, and reports the bound address on ready when
// non-nil — the test harness uses ready/stop to drive a real listener
// on a kernel-assigned port.
func run(args []string, out io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("dipe-worker", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", ":8416", "listen address")
		circuits  = fs.Int("circuits", 0, "installed-circuit table capacity (0 = default)")
		register  = fs.String("register", "", "coordinator base URL to self-register with (empty = none)")
		advertise = fs.String("advertise", "", "base URL the coordinator should reach this worker at (default http://127.0.0.1:<port>)")
		logLevel  = fs.String("log-level", "info", "structured log threshold: debug | info | warn | error")
		logFormat = fs.String("log-format", "logfmt", "structured log encoding: logfmt | json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The worker mounts reg.Handler() at /metrics itself; the compiled
	// engine's wave/instruction counters register on the same registry
	// so sampling throughput is scrapable per node.
	reg := obs.NewRegistry()
	sim.RegisterCompiledMetrics(reg)
	log := obs.NewLogger(os.Stderr, obs.ParseLevel(*logLevel), obs.ParseFormat(*logFormat))
	wk := cluster.NewWorker(cluster.WorkerConfig{CircuitCap: *circuits, Obs: reg, Log: log})
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Every request context descends from baseCtx; cancelling it on
	// shutdown aborts in-flight sample streams at their next block, so a
	// draining worker doesn't sit out the whole Shutdown deadline waiting
	// for coordinators to hang up. A severed stream is a fault the
	// coordinator's lease/reassignment machinery already absorbs.
	baseCtx, abortStreams := context.WithCancel(context.Background())
	defer abortStreams()
	srv := &http.Server{
		Handler:     wk.Handler(),
		BaseContext: func(net.Listener) context.Context { return baseCtx },
	}
	fmt.Fprintf(out, "dipe-worker listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	regCtx, regCancel := context.WithCancel(context.Background())
	defer regCancel()
	if *register != "" {
		self := *advertise
		if self == "" {
			_, port, err := net.SplitHostPort(ln.Addr().String())
			if err != nil {
				return err
			}
			self = "http://127.0.0.1:" + port
		}
		go selfRegister(regCtx, out, strings.TrimRight(*register, "/"), self)
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	if stop == nil {
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sigc)
		select {
		case err := <-errc:
			return err
		case <-sigc:
		}
	} else {
		select {
		case err := <-errc:
			return err
		case <-stop:
		}
	}

	// Stop re-announcing, abort in-flight streams at their next block,
	// then drain the remaining (short-lived) requests.
	regCancel()
	abortStreams()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// A coordinator may still hold a dead stream's socket open past
		// the deadline; surrender the sockets rather than hang shutdown.
		_ = srv.Close()
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "dipe-worker stopped")
	return nil
}

// selfRegister announces the worker to the coordinator and keeps
// re-announcing it for the life of the process: exponential backoff
// with jitter until the first success — the coordinator may come up
// well after the workers, and a fleet booting together must not
// synchronize its retries — then a slow steady cadence (15s). Each
// attempt carries its own timeout. The coordinator's worker table is
// in-memory, so periodic re-registration is what lets a restarted
// coordinator rediscover its fleet without operator action;
// re-registering an already-known URL is an idempotent re-probe.
func selfRegister(ctx context.Context, out io.Writer, coordinator, self string) {
	body, err := json.Marshal(map[string]string{"url": self})
	if err != nil {
		return
	}
	const (
		baseDelay   = 500 * time.Millisecond
		steadyDelay = 15 * time.Second
	)
	client := &http.Client{}
	registered := false
	delay := baseDelay
	for {
		attempt, cancel := context.WithTimeout(ctx, 3*time.Second)
		req, err := http.NewRequestWithContext(attempt, http.MethodPost,
			coordinator+"/v1/cluster/workers", bytes.NewReader(body))
		if err != nil {
			cancel()
			fmt.Fprintf(out, "dipe-worker: bad coordinator URL: %v\n", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusCreated:
				if !registered {
					fmt.Fprintf(out, "registered with %s as %s\n", coordinator, self)
				}
				registered = true
			case resp.StatusCode == http.StatusNotFound:
				// The coordinator is not in cluster mode; retrying will not
				// fix a configuration error, so say so and stop.
				cancel()
				fmt.Fprintf(out, "dipe-worker: %s is not running a cluster dispatcher (start dipe-server with -cluster or -workers-addr)\n", coordinator)
				return
			}
		}
		cancel()
		var wait time.Duration
		if registered {
			delay = baseDelay // reset for the next outage
			wait = steadyDelay
		} else {
			// ±20% jitter, then double toward the steady cadence.
			wait = delay + time.Duration((rand.Float64()-0.5)*0.4*float64(delay))
			if delay *= 2; delay > steadyDelay {
				delay = steadyDelay
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}
