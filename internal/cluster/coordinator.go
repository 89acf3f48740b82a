package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// CoordinatorConfig configures the cluster dispatcher. The zero value
// is usable: workers can be registered later (AddWorker or the server's
// POST /v1/cluster/workers).
type CoordinatorConfig struct {
	// Workers is the initial worker base-URL list.
	Workers []string
	// Heartbeat is the health-poll period (default 2s).
	Heartbeat time.Duration
	// LeaseTimeout is the per-block delivery deadline of a range lease
	// (default 15s): a worker that goes this long without producing the
	// next block — while another live worker is free to take over — has
	// the lease reclaimed and the range reassigned with SkipBlocks
	// replay. The first block of a stream is allowed leaseStartupFactor
	// timeouts (setup + warm-up + replay).
	LeaseTimeout time.Duration
	// WorkerWait is how long a job waits for at least one live worker
	// before failing with "no live workers" (default 0: fail fast). A
	// restarted durable server re-runs its journaled jobs immediately —
	// typically before the worker fleet has re-registered — so resume
	// needs a grace period covering the workers' re-announce cadence.
	WorkerWait time.Duration
	// Client is the HTTP client for streams and uploads (default: a
	// dedicated client with no overall timeout — streams are long-lived
	// and cancelled by context).
	Client *http.Client
	// Obs, when non-nil, is the registry the coordinator's metrics
	// (dipe_cluster_*) register on. When nil an internal registry backs
	// the same counters, so /v1/cluster/workers reads real instrument
	// cells either way — only the scrape endpoint is absent.
	Obs *obs.Registry
	// Log, when non-nil, receives structured worker-liveness and lease
	// lifecycle events. A nil logger discards them.
	Log *slog.Logger

	// tick and probed are test seams (settable from same-package tests
	// only): a non-nil tick replaces the heartbeat ticker with an
	// injected clock, and probed receives one notification after each
	// completed heartbeat round. Together they let liveness-transition
	// tests drive the heartbeat deterministically instead of sleeping
	// against wall-clock timers.
	tick   <-chan time.Time
	probed chan<- struct{}
}

// probeTimeout bounds one health probe.
const probeTimeout = time.Second

// maxAttempts bounds stream (re)starts per replication range per job,
// counting only failed attempts. Determinism makes retries safe, so the
// bound exists only to fail jobs on a dead cluster instead of spinning.
const maxAttempts = 8

// workerState is one registered worker, guarded by the coordinator's
// mutex. The degradation counters are registry instruments (labeled by
// worker URL), so the JSON status view and the /metrics scrape read the
// same cells; see clusterMetrics.
type workerState struct {
	url          string
	alive        bool
	lastSeen     time.Time
	activeLeases int
	lastErr      string
	// Registry-backed counters (see service.WorkerStatus for semantics).
	failures      *obs.Counter
	retries       *obs.Counter
	reassignments *obs.Counter
	leaseExpiries *obs.Counter
	grants        *obs.Counter
	steals        *obs.Counter
	blockLat      *obs.Histogram
}

// Coordinator shards estimation jobs across dipe-worker processes. It
// implements service.Dispatcher (so dipe-server jobs run on it
// transparently) and service.WorkerRegistrar (runtime worker
// registration).
//
// Sampling flow: the job manager has already run interval selection
// and plan resolution in process; the coordinator partitions the
// replication space into contiguous ranges, opens one streaming
// /v1/run per range on the live workers, and feeds the per-range
// sample blocks to core.Tail, the merge loop core.EstimateParallel
// runs, in the canonical order, making the pooled sequential stopping
// decision bit-identical to it with the same seeds. Worker death
// mid-stream triggers reassignment: another worker re-runs the range
// with SkipBlocks set to the already-merged prefix, which the
// deterministic seeding reproduces exactly.
type Coordinator struct {
	mu      sync.Mutex
	workers map[string]*workerState
	order   []string // registration order: deterministic assignment

	client       *http.Client
	hb           time.Duration
	leaseTimeout time.Duration
	workerWait   time.Duration
	hbTick       <-chan time.Time // injected heartbeat clock (tests)
	hbProbed     chan<- struct{}  // per-round completion notification (tests)

	met     *clusterMetrics
	coreMet *core.Metrics // convergence telemetry of the merge loop
	log     *slog.Logger

	stop     chan struct{}
	stopOnce sync.Once
	hbWG     sync.WaitGroup
}

// NewCoordinator builds the dispatcher, probes the initial workers
// synchronously (so Ready is meaningful immediately) and starts the
// heartbeat loop. Close it when done.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 2 * time.Second
	}
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 15 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{} // streams must not carry an overall timeout
	}
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry() // internal: counters stay real, just unscraped
	}
	if cfg.Log == nil {
		cfg.Log = slog.New(slog.DiscardHandler)
	}
	c := &Coordinator{
		workers:      make(map[string]*workerState),
		met:          newClusterMetrics(reg),
		coreMet:      core.NewCoreMetrics(reg),
		log:          cfg.Log.With("component", "cluster"),
		client:       client,
		hb:           cfg.Heartbeat,
		leaseTimeout: cfg.LeaseTimeout,
		workerWait:   cfg.WorkerWait,
		hbTick:       cfg.tick,
		hbProbed:     cfg.probed,
		stop:         make(chan struct{}),
	}
	reg.GaugeFunc("dipe_cluster_workers_alive",
		"Workers currently passing heartbeats.",
		func() float64 { return float64(len(c.aliveWorkers())) })
	for _, u := range cfg.Workers {
		if err := c.AddWorker(u); err != nil {
			return nil, err
		}
	}
	c.hbWG.Add(1)
	go c.heartbeatLoop()
	return c, nil
}

// Close stops the heartbeat loop. In-flight Estimate calls are owned by
// their contexts (the job manager cancels them on shutdown).
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.hbWG.Wait()
}

// Name implements service.Dispatcher.
func (c *Coordinator) Name() string { return "cluster" }

// Ready implements service.Dispatcher: the cluster can run jobs once at
// least one worker answers its heartbeat.
func (c *Coordinator) Ready() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.workers) == 0 {
		return errors.New("cluster: no workers registered")
	}
	for _, w := range c.workers {
		if w.alive {
			return nil
		}
	}
	return fmt.Errorf("cluster: none of %d registered workers reachable", len(c.workers))
}

// AddWorker implements service.WorkerRegistrar: it normalizes and
// registers a worker base URL and probes it immediately.
// Re-registering an existing URL just re-probes it, so workers POST
// their registration on every startup.
func (c *Coordinator) AddWorker(rawURL string) error {
	u, err := url.Parse(strings.TrimRight(rawURL, "/"))
	if err != nil {
		return fmt.Errorf("cluster: bad worker url %q: %w", rawURL, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("cluster: bad worker url %q (want http[s]://host:port)", rawURL)
	}
	norm := u.String()
	c.mu.Lock()
	if _, ok := c.workers[norm]; !ok {
		c.workers[norm] = c.newWorkerState(norm)
		c.order = append(c.order, norm)
		c.log.Info("worker registered", "worker", norm)
	}
	c.mu.Unlock()
	c.probe(norm)
	return nil
}

// newWorkerState resolves the worker's labeled instrument cells; one
// resolution at registration, atomic increments thereafter.
func (c *Coordinator) newWorkerState(url string) *workerState {
	return &workerState{
		url:           url,
		failures:      c.met.failures.With(url),
		retries:       c.met.retries.With(url),
		reassignments: c.met.reassigns.With(url),
		leaseExpiries: c.met.expiries.With(url),
		grants:        c.met.grants.With(url),
		steals:        c.met.steals.With(url),
		blockLat:      c.met.blockLat.With(url),
	}
}

// Workers implements service.WorkerRegistrar.
func (c *Coordinator) Workers() []service.WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]service.WorkerStatus, 0, len(c.order))
	for _, u := range c.order {
		w := c.workers[u]
		out = append(out, service.WorkerStatus{
			URL:           w.url,
			Alive:         w.alive,
			LastSeen:      w.lastSeen,
			Failures:      w.failures.Value(),
			ActiveLeases:  w.activeLeases,
			Retries:       w.retries.Value(),
			Reassignments: w.reassignments.Value(),
			LeaseExpiries: w.leaseExpiries.Value(),
			LeaseGrants:   w.grants.Value(),
			LeaseSteals:   w.steals.Value(),
			LastError:     w.lastErr,
		})
	}
	return out
}

// heartbeatLoop probes every registered worker each period — including
// dead ones, which is how a restarted worker rejoins without
// re-registering. The period comes from a ticker, or from the injected
// test clock when one is configured, so liveness tests advance the
// heartbeat explicitly instead of sleeping.
func (c *Coordinator) heartbeatLoop() {
	defer c.hbWG.Done()
	tick := c.hbTick
	if tick == nil {
		ticker := time.NewTicker(c.hb)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-c.stop:
			return
		case <-tick:
		}
		c.mu.Lock()
		urls := append([]string(nil), c.order...)
		c.mu.Unlock()
		var wg sync.WaitGroup
		for _, u := range urls {
			wg.Add(1)
			go func(u string) {
				defer wg.Done()
				c.probe(u)
			}(u)
		}
		wg.Wait()
		if c.hbProbed != nil {
			select {
			case c.hbProbed <- struct{}{}:
			case <-c.stop:
				return
			}
		}
	}
}

// probe pings one worker's /healthz and updates its state.
func (c *Coordinator) probe(workerURL string) {
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, workerURL+"/healthz", nil)
	if err != nil {
		c.setAlive(workerURL, false, true)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.setAlive(workerURL, false, true)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	c.setAlive(workerURL, resp.StatusCode == http.StatusOK, resp.StatusCode != http.StatusOK)
}

func (c *Coordinator) setAlive(workerURL string, alive, failed bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.workers[workerURL]
	if w == nil {
		return
	}
	wasAlive := w.alive
	w.alive = alive
	if alive {
		w.lastSeen = time.Now()
	}
	if failed && wasAlive {
		w.failures.Inc()
	}
	switch {
	case alive && !wasAlive:
		c.log.Info("worker up", "worker", workerURL)
	case !alive && wasAlive:
		c.log.Warn("worker down", "worker", workerURL)
	}
}

// markFailed records a stream failure and takes the worker out of
// rotation until a heartbeat revives it.
func (c *Coordinator) markFailed(workerURL string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[workerURL]; w != nil {
		w.alive = false
		w.failures.Inc()
		w.retries.Inc()
		if err != nil {
			w.lastErr = err.Error()
		}
		c.log.Warn("worker stream failed", "worker", workerURL, "err", err)
	}
}

// aliveWorkers snapshots the live worker URLs in registration order.
func (c *Coordinator) aliveWorkers() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.order))
	for _, u := range c.order {
		if c.workers[u].alive {
			out = append(out, u)
		}
	}
	return out
}

// rangesPerWorker is how many replication ranges a job asks core.Ranges
// for per live worker. More ranges than workers give fast workers a
// tail to steal; a job with fewer word rows gets fewer.
const rangesPerWorker = 4

// rangeMsg is one delivery from a range stream to the merge loop.
type rangeMsg struct {
	block core.ReplicationBlock
	err   error
}

// repRange is one contiguous replication range's delivery channel.
type repRange struct {
	idx int // position in the job's range list (scheduler penalty key)
	ch  chan rangeMsg
}

// Sample implements service.Dispatcher: the sampling phase sharded
// across the cluster, as the distributed block producer of core.Tail.
// It first calls prepare for the job's frozen point; workers warm their
// own ranges, so there is nothing to run beside it. It then streams
// sample blocks from one worker per replication range and feeds them to
// the job's merge loop, which makes the stopping decision and builds
// the Result exactly as the in-process estimator does. The result is
// bit-identical to core.EstimateParallel(tb, ..., req.Seed, opts) —
// mean, half-width, sample size and cycle counts — for any worker count
// and any mid-job lease/reassignment history. Workers that miss the
// circuit are sent src, the provenance tb was built from, so they
// sample the circuit phase 1 ran on.
func (c *Coordinator) Sample(ctx context.Context, tb *core.Testbench, src service.CircuitSource, req service.JobRequest, prepare func() (core.ResumePoint, error), progress func(core.Progress)) (core.Result, error) {
	rp, err := prepare()
	if err != nil {
		return core.Result{}, err
	}
	opts := req.Options.Options()
	opts.Progress = progress
	opts.Metrics = c.coreMet
	t, err := core.NewTail(tb, opts, rp)
	if err != nil {
		return core.Result{}, err
	}
	reps := t.Reps()
	hash := service.HashSource(src)

	alive := c.aliveWorkers()
	if len(alive) == 0 && c.workerWait > 0 {
		// Grace for a fleet that is still (re-)registering — a restarted
		// durable server resumes its jobs before its workers re-announce.
		wctx, wcancel := context.WithTimeout(ctx, c.workerWait)
		bo := newRetryBackoff(50*time.Millisecond, c.hb)
		for len(alive) == 0 && bo.sleep(wctx) == nil {
			alive = c.aliveWorkers()
		}
		wcancel()
	}
	if len(alive) == 0 {
		return core.Result{}, errors.New("cluster: no live workers")
	}
	// core.Ranges, the layout rule of the in-process shards, cuts the
	// ranges: at most rangesPerWorker per live worker, so a fast worker
	// has a tail of leases to steal, and never below a word row. No
	// layout shows in the merged result.
	bounds := core.Ranges(0, reps, len(alive)*rangesPerWorker)
	k := len(bounds)
	ranges := make([]*repRange, k)
	lanes := make([]int, k)

	tr := obs.TraceFrom(ctx)
	tr.Event("shard",
		"ranges", strconv.Itoa(k),
		"workers", strconv.Itoa(len(alive)),
		"replications", strconv.Itoa(reps),
		"interval", strconv.Itoa(rp.Interval))

	js := newJobScheduler(c)
	sctx, cancel := context.WithCancel(ctx)
	// On every exit, stop every worker stream and then wait for the
	// range goroutines: none outlives the job, so the next job's
	// scheduler and /v1/cluster/workers see only live leases. Every
	// blocking point of a range goroutine honours sctx, so the wait
	// ends promptly.
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	for i, b := range bounds {
		rg := &repRange{idx: i, ch: make(chan rangeMsg, 16)}
		ranges[i] = rg
		lanes[i] = b[1] - b[0]
		run := &RunRequest{Hash: hash, Source: req.Source, Seed: req.Seed, Options: req.Options, Stream: t.Stream(b[0], b[1])}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.runLeasedRange(sctx, js, src, run, rg)
		}()
	}

	blocks := make([]core.ReplicationBlock, k)
	return t.Run(ctx, lanes, func(b, _ int) ([]core.ReplicationBlock, error) {
		// Barrier: block b from every range, in replication order.
		for i, rg := range ranges {
			lo, hi := bounds[i][0], bounds[i][1]
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case msg, ok := <-rg.ch:
				switch {
				case !ok:
					return nil, fmt.Errorf("cluster: range [%d,%d) stream ended before block %d", lo, hi, b)
				case msg.err != nil:
					return nil, fmt.Errorf("cluster: range [%d,%d): %w", lo, hi, msg.err)
				case msg.block.Index != b:
					return nil, fmt.Errorf("cluster: range [%d,%d) delivered block %d, want %d", lo, hi, msg.block.Index, b)
				}
				blocks[i] = msg.block
			}
		}
		return blocks, nil
	})
}

// errUnknownCircuit marks a 404 from /v1/run: the worker misses the
// netlist and needs propagation, not replacement.
var errUnknownCircuit = errors.New("cluster: worker misses circuit")

// errPermanent marks a worker response that retrying cannot fix (a 4xx
// request rejection): the job must fail without marking the worker
// dead or burning retry budget across a healthy fleet.
var errPermanent = errors.New("cluster: request rejected")

// streamRange opens one /v1/run stream of run under a block lease and
// forwards its blocks, starting at run.SkipBlocks and bumping it per
// delivered block. A nil return means the stream completed (the job's
// block budget, core.MaxBlocks, reached); errLeaseExpired means the
// lease watchdog reclaimed the stream (next block overdue while another
// worker was free); any error leaves run.SkipBlocks at the resume point
// for the next attempt.
func (c *Coordinator) streamRange(ctx context.Context, js *jobScheduler, worker string, run *RunRequest, rg *repRange) error {
	// The lease deadline enforces block delivery by cancelling the
	// stream's own context; the parent ctx (merge loop) is untouched.
	sctx, cancel := context.WithCancel(ctx)
	defer cancel()
	l := newBlockLease(js, worker, c.leaseTimeout, cancel)
	defer l.stop()
	err := c.streamBlocks(sctx, l, worker, run, rg)
	if err != nil && l.expired.Load() && ctx.Err() == nil {
		return fmt.Errorf("%w: worker %s stalled before block %d", errLeaseExpired, worker, run.SkipBlocks)
	}
	return err
}

// streamBlocks is the body of one stream attempt; ctx is the
// lease-cancellable stream context. The block cadence and budget it
// expects are the ones the worker derives from the same options.
func (c *Coordinator) streamBlocks(ctx context.Context, l *blockLease, worker string, run *RunRequest, rg *repRange) error {
	opts := run.Options.Options()
	rounds, maxBlocks, lanes := core.BlockRounds(opts), core.MaxBlocks(opts), run.RepHi-run.RepLo
	body, err := json.Marshal(run)
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode == http.StatusNotFound {
		return fmt.Errorf("%w (%s)", errUnknownCircuit, worker)
	}
	if resp.StatusCode != http.StatusOK {
		return responseError(resp, "worker "+worker)
	}

	c.mu.Lock()
	var blockLat *obs.Histogram // nil-safe when the worker was dropped
	if w := c.workers[worker]; w != nil {
		blockLat = w.blockLat
	}
	c.mu.Unlock()
	lastBlock := time.Now()

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	if !sc.Scan() {
		return fmt.Errorf("cluster: worker %s: stream ended before header: %w", worker, scanErr(sc))
	}
	var hdr StreamHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return fmt.Errorf("cluster: worker %s: bad stream header: %w", worker, err)
	}
	if hdr.Lanes != lanes || hdr.Rounds != rounds {
		// The worker derives its cadence as the merger does; a mismatch
		// means the two run different versions of that rule.
		return fmt.Errorf("cluster: worker %s: header (lanes=%d rounds=%d), want (%d, %d)",
			worker, hdr.Lanes, hdr.Rounds, lanes, rounds)
	}
	want := rounds * lanes
	for sc.Scan() {
		var blk core.ReplicationBlock
		if err := json.Unmarshal(sc.Bytes(), &blk); err != nil {
			return fmt.Errorf("cluster: worker %s: bad block: %w", worker, err)
		}
		if blk.Index != run.SkipBlocks {
			return fmt.Errorf("cluster: worker %s: block %d out of order (want %d)", worker, blk.Index, run.SkipBlocks)
		}
		if len(blk.Samples) != want {
			return fmt.Errorf("cluster: worker %s: block %d carries %d samples, want %d", worker, blk.Index, len(blk.Samples), want)
		}
		blockLat.Observe(time.Since(lastBlock).Seconds())
		// Block in hand: suspend the delivery deadline while the merge
		// loop applies backpressure — waiting on the coordinator's own
		// queue is not the worker's fault.
		l.pause()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case rg.ch <- rangeMsg{block: blk}:
			run.SkipBlocks++
		}
		if run.SkipBlocks >= maxBlocks {
			return nil
		}
		l.arm()
		// Restart the latency clock only once we are waiting on the worker
		// again — like the lease, the histogram must not charge the worker
		// for merge-loop backpressure.
		lastBlock = time.Now()
	}
	if err := scanErr(sc); err != nil {
		return fmt.Errorf("cluster: worker %s: stream broke at block %d: %w", worker, run.SkipBlocks, err)
	}
	return fmt.Errorf("cluster: worker %s: stream ended early at block %d of %d", worker, run.SkipBlocks, maxBlocks)
}

// responseError reads a worker's error answer. A 4xx is errPermanent:
// the worker refused the request itself, so the job must fail with the
// worker's message instead of retrying it on a healthy fleet.
func responseError(resp *http.Response, what string) error {
	var eb struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb)
	err := fmt.Errorf("cluster: %s: status %d: %s", what, resp.StatusCode, eb.Error)
	if resp.StatusCode >= 400 && resp.StatusCode < 500 {
		err = fmt.Errorf("%w: %w", errPermanent, err)
	}
	return err
}

func scanErr(sc *bufio.Scanner) error {
	if err := sc.Err(); err != nil {
		return err
	}
	return io.ErrUnexpectedEOF
}

// installCircuit propagates a circuit's provenance to one worker. The
// call is bounded by its own timeout (an install is one bounded upload,
// unlike a stream) so a black-holed worker cannot stall the retry loop.
// A worker's 4xx refusal comes back as errPermanent (responseError).
func (c *Coordinator) installCircuit(ctx context.Context, worker, hash string, src service.CircuitSource) error {
	ctx, cancel := context.WithTimeout(ctx, c.leaseTimeout)
	defer cancel()
	body, err := json.Marshal(InstallRequest{Hash: hash, Source: src})
	if err != nil {
		return err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, worker+"/v1/circuits", bytes.NewReader(body))
	if err != nil {
		return err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.client.Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return responseError(resp, "install on "+worker)
	}
	io.Copy(io.Discard, resp.Body)
	return nil
}
