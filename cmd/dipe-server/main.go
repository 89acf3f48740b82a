// Command dipe-server is the long-running power-estimation service: an
// HTTP/JSON front end over the DIPE estimator with a frozen-circuit
// LRU cache, an asynchronous bounded job pool, and batch fan-out.
//
//	dipe-server                          # listen on :8415
//	dipe-server -addr :9000 -workers 4   # bigger pool
//	dipe-server -cache 32 -queue 256     # more cached circuits / queue depth
//
// Cluster mode shards every job's replications across dipe-worker
// processes instead of local goroutines, with results bit-identical to
// local mode (same seeds, same merge order):
//
//	dipe-server -workers-addr http://10.0.0.7:8416,http://10.0.0.8:8416
//	dipe-server -cluster                 # workers self-register later
//
// With -state-dir, jobs are journaled to an append-only store and a
// restarted server resumes the ones a crash interrupted, with final
// results bit-identical to an uninterrupted run:
//
//	dipe-server -state-dir /var/lib/dipe
//
// Endpoints (see internal/service for the full API):
//
//	curl -s localhost:8415/healthz
//	curl -s localhost:8415/readyz        # 503 until jobs can actually run
//	curl -s -X POST localhost:8415/v1/jobs -d '{"circuit":"s298","seed":1}'
//	curl -s -X POST localhost:8415/v1/jobs \
//	  -d '{"circuit":"s298","seed":1,"options":{"powerMode":"zero-delay"}}'
//	curl -s localhost:8415/v1/jobs/job-000001
//	curl -s localhost:8415/v1/jobs/job-000001/wait
//	curl -s -X POST localhost:8415/v1/batch -d '{"jobs":[{"circuit":"s298","seed":1},{"circuit":"s832","seed":2}]}'
//	curl -s localhost:8415/v1/stats
//	curl -s localhost:8415/v1/jobs/job-000001/trace
//	curl -s localhost:8415/metrics       # Prometheus text exposition
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil, nil); err != nil {
		fmt.Fprintln(os.Stderr, "dipe-server:", err)
		os.Exit(1)
	}
}

// run parses args, serves until the stop channel (or SIGINT/SIGTERM
// when stop is nil) fires, and reports the bound address on ready when
// non-nil — the test harness uses ready/stop to drive a real listener
// on a kernel-assigned port.
func run(args []string, out io.Writer, ready chan<- string, stop <-chan struct{}) error {
	fs := flag.NewFlagSet("dipe-server", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", ":8415", "listen address")
		cache       = fs.Int("cache", 0, "frozen-circuit LRU capacity (0 = default)")
		workers     = fs.Int("workers", 0, "concurrent estimation jobs (0 = default)")
		queue       = fs.Int("queue", 0, "pending-job queue bound (0 = default)")
		clusterOn   = fs.Bool("cluster", false, "cluster mode with an empty worker set (workers register via POST /v1/cluster/workers)")
		workersAddr = fs.String("workers-addr", "", "comma-separated dipe-worker base URLs (implies cluster mode)")
		heartbeat   = fs.Duration("heartbeat", 0, "cluster worker health-poll period (0 = default 2s)")
		leaseT      = fs.Duration("lease-timeout", 0, "cluster per-block lease deadline (0 = default 15s)")
		workerWait  = fs.Duration("worker-wait", 0, "grace a cluster job waits for a live worker before failing (0 = fail fast, or 45s when -state-dir is set so resumed jobs outlast fleet re-registration)")
		stateDir    = fs.String("state-dir", "", "durable job-store directory; jobs interrupted by a crash or restart resume on the next start (empty = in-memory only)")
		debugPprof  = fs.Bool("debug-pprof", false, "expose net/http/pprof profiling handlers under /debug/pprof/ (off by default; enable only on trusted networks)")
		logLevel    = fs.String("log-level", "info", "structured log threshold: debug | info | warn | error")
		logFormat   = fs.String("log-format", "logfmt", "structured log encoding: logfmt | json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}

	// One process-wide registry backs /metrics; every subsystem
	// (service jobs, local estimator, cluster coordinator, compiled
	// lane engine) registers its instruments on it.
	reg := obs.NewRegistry()
	sim.RegisterCompiledMetrics(reg)

	var store *service.JobStore
	if *stateDir != "" {
		if store, err = service.OpenJobStore(*stateDir); err != nil {
			return err
		}
		st := store.Stats()
		fmt.Fprintf(out, "dipe-server job store %s: %d records, %d jobs restored (%d to resume)\n",
			st.Path, st.Records, st.Restored, st.Resumed)
	}

	var dispatcher service.Dispatcher
	if *clusterOn || *workersAddr != "" {
		var urls []string
		for _, u := range strings.Split(*workersAddr, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if *workerWait == 0 && store != nil {
			// Resumed jobs re-run the moment the pool starts, before the
			// fleet's periodic self-registration finds the new process.
			*workerWait = 45 * time.Second
		}
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			Workers:      urls,
			Heartbeat:    *heartbeat,
			LeaseTimeout: *leaseT,
			WorkerWait:   *workerWait,
			Obs:          reg,
			Log:          log,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		dispatcher = coord
		fmt.Fprintf(out, "dipe-server cluster mode, %d initial workers\n", len(urls))
	}

	svc := service.New(service.Config{
		CacheSize:  *cache,
		Workers:    *workers,
		QueueSize:  *queue,
		Dispatcher: dispatcher,
		Store:      store,
		Obs:        reg,
		Log:        log,
	})
	defer svc.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// /metrics lives outside the service mux: the registry belongs to
	// the process (compiled-engine and cluster metrics register on it
	// too), not to the service.
	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	mux.Handle("GET /metrics", reg.Handler())
	if *debugPprof {
		// The profiling endpoints are opt-in on the same private mux so
		// the default import side effects on http.DefaultServeMux are
		// never exposed by accident.
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintln(out, "dipe-server pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{Handler: mux}
	fmt.Fprintf(out, "dipe-server listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
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

	// Graceful drain, in order: Close cancels every live job, rejects
	// new submissions, blocks until the whole job pool has retired — no
	// estimation goroutine outlives it — and flushes the job store, so
	// drained-but-unfinished jobs replay as resumable on the next start. That also closes the per-job
	// done channels that parked /v1/jobs/{id}/wait handlers block on;
	// otherwise a client long-polling a slow job would hold an in-flight
	// request past the Shutdown deadline and turn every routine SIGTERM
	// into a failed shutdown. Only then does srv.Shutdown wait out the
	// remaining (now short-lived) HTTP requests.
	svc.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(out, "dipe-server stopped")
	return nil
}
