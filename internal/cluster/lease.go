package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// This file is the work-stealing half of the coordinator: replication
// ranges are not pinned to workers for the duration of a job but
// *leased*, one stream attempt at a time, with a per-block delivery
// deadline. A worker that stops producing blocks — dead, stalled, or
// just slow while a faster worker sits idle — has its lease reclaimed
// and the range reassigned; the replacement stream replays the merged
// prefix via SkipBlocks, which deterministic seeding reproduces
// exactly, so stealing is invisible in the merged result. A job asks
// for more ranges than workers (rangesPerWorker per live worker)
// precisely so there is a tail of ranges for fast workers to steal;
// a word-parallel job gets no more ranges than it has word rows.
//
// Scheduling is least-loaded with memory: each (worker, range) pair
// that burns a lease to expiry is penalized for that range, so a
// reclaimed range is not handed straight back to the worker that just
// timed out on it (which, having lost a lease, would otherwise look
// attractively idle).

// errLeaseExpired marks a stream attempt cancelled by its own lease
// deadline: the worker is alive but did not deliver a block in time
// while another worker was free to take over.
var errLeaseExpired = errors.New("cluster: lease expired")

// leaseStartupFactor scales the first block's delivery allowance: the
// first block carries stream setup, per-replication warm-up and the
// hidden-cycle replay of every already-merged block, so it is given
// leaseStartupFactor lease timeouts where subsequent blocks get one.
const leaseStartupFactor = 4

// retryBackoff yields exponentially growing waits with ±20% jitter,
// capped. The jitter decorrelates concurrent range runners retrying
// against the same recovering worker.
type retryBackoff struct {
	next, max time.Duration
}

func newRetryBackoff(base, max time.Duration) *retryBackoff {
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	if max < base {
		max = base
	}
	return &retryBackoff{next: base, max: max}
}

// sleep waits the current interval (jittered) or until ctx ends, then
// doubles the interval up to the cap.
func (b *retryBackoff) sleep(ctx context.Context) error {
	d := b.next + time.Duration((rand.Float64()-0.5)*0.4*float64(b.next))
	if b.next *= 2; b.next > b.max {
		b.next = b.max
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// jobScheduler arbitrates one job's leases: which worker streams each
// replication range right now, how loaded every worker is, and which
// (worker, range) pairs have burned a lease to expiry. One exists per
// Sample call; worker liveness and the global per-worker counters
// live on the Coordinator it wraps.
//
// Lock order: js.mu before c.mu, always.
type jobScheduler struct {
	c  *Coordinator
	mu sync.Mutex
	// penalty[worker][rangeIdx] counts leases that worker burned to
	// expiry on that range.
	penalty map[string]map[int]int
	// installs[worker] is the job's circuit install on that worker,
	// sent or being sent (see install).
	installs map[string]*circuitInstall
}

// circuitInstall is one install of a job's circuit on one worker; err
// is set before done is closed.
type circuitInstall struct {
	done chan struct{}
	err  error
}

func newJobScheduler(c *Coordinator) *jobScheduler {
	return &jobScheduler{c: c, penalty: make(map[string]map[int]int), installs: make(map[string]*circuitInstall)}
}

// install gets the job's circuit onto worker with at most one send at a
// time: the first of the job's ranges to miss the circuit there sends
// it, the others wait for that outcome instead of sending their own,
// and once one succeeded a later ask returns at once. A failed install
// is forgotten, so the next range to miss the circuit sends it again.
func (s *jobScheduler) install(ctx context.Context, worker string, send func() error) error {
	s.mu.Lock()
	in := s.installs[worker]
	if in == nil {
		in = &circuitInstall{done: make(chan struct{})}
		s.installs[worker] = in
		s.mu.Unlock()
		if in.err = send(); in.err != nil {
			s.mu.Lock()
			delete(s.installs, worker)
			s.mu.Unlock()
		}
		close(in.done)
		return in.err
	}
	s.mu.Unlock()
	select {
	case <-in.done:
		return in.err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// acquire leases rangeIdx to a live worker, blocking (with backoff)
// until one is available or ctx ends. prev is the worker that held the
// range last ("" on first acquisition): it is deprioritized after a
// failure or expiry but remains eligible when it is the only live
// worker. delivered>0 with a changed owner counts as a reassignment on
// the inheriting worker; expired marks a reacquisition right after a
// lease expiry, so a changed owner additionally counts as a steal on
// the thief.
func (s *jobScheduler) acquire(ctx context.Context, rangeIdx int, prev string, delivered int, expired bool) (string, error) {
	bo := newRetryBackoff(50*time.Millisecond, s.c.hb)
	for {
		if w, ok := s.tryAcquire(rangeIdx, prev, delivered, expired); ok {
			return w, nil
		}
		if err := bo.sleep(ctx); err != nil {
			return "", err
		}
	}
}

// tryAcquire picks the live worker minimizing (range penalty, active
// leases, registration order) and charges the lease to it. The previous
// owner carries a large penalty addend so it wins only as the sole live
// worker.
func (s *jobScheduler) tryAcquire(rangeIdx int, prev string, delivered int, expired bool) (string, bool) {
	const prevOwnerPenalty = 1 << 20
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	best := ""
	var bestPen, bestLoad int
	for _, u := range c.order {
		w := c.workers[u]
		if !w.alive {
			continue
		}
		pen := s.penalty[u][rangeIdx]
		if u == prev {
			pen += prevOwnerPenalty
		}
		if best == "" || pen < bestPen || (pen == bestPen && w.activeLeases < bestLoad) {
			best, bestPen, bestLoad = u, pen, w.activeLeases
		}
	}
	if best == "" {
		return "", false
	}
	w := c.workers[best]
	w.activeLeases++
	w.grants.Inc()
	if delivered > 0 && prev != "" && best != prev {
		w.reassignments.Inc()
	}
	if expired && prev != "" && best != prev {
		w.steals.Inc()
	}
	return best, true
}

// release returns a lease.
func (s *jobScheduler) release(worker string) {
	s.c.mu.Lock()
	if w := s.c.workers[worker]; w != nil && w.activeLeases > 0 {
		w.activeLeases--
	}
	s.c.mu.Unlock()
}

// expire records a lease reclaimed from worker on rangeIdx: the pair is
// penalized in future assignment and the worker's degradation counters
// bump. The worker stays in rotation — expiry means slow, not dead.
func (s *jobScheduler) expire(worker string, rangeIdx int) {
	s.mu.Lock()
	m := s.penalty[worker]
	if m == nil {
		m = make(map[int]int)
		s.penalty[worker] = m
	}
	m[rangeIdx]++
	s.mu.Unlock()
	s.c.mu.Lock()
	if w := s.c.workers[worker]; w != nil {
		w.leaseExpiries.Inc()
		w.retries.Inc()
		w.lastErr = fmt.Sprintf("lease expired on range %d", rangeIdx)
	}
	s.c.mu.Unlock()
	s.c.log.Warn("lease expired", "worker", worker, "range", rangeIdx)
}

// shouldReclaim reports whether expiring worker's lease can help:
// either another live worker exists to steal the range, or the holder
// itself has been marked dead (its stream is a zombie). A slow but sole
// live worker keeps its lease — reclaiming would only force a pointless
// replay onto the same worker.
func (s *jobScheduler) shouldReclaim(worker string) bool {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[worker]; w != nil && !w.alive {
		return true
	}
	for _, u := range c.order {
		if u != worker && c.workers[u].alive {
			return true
		}
	}
	return false
}

// blockLease is the watchdog of one stream attempt: a deadline on the
// *next block's delivery*, armed while the coordinator waits on the
// worker and paused while the block is handed to the merge loop (merge
// backpressure is the coordinator's queue, not the worker's fault).
// Firing reclaims the lease by cancelling the stream context — unless
// reclaiming cannot help (see shouldReclaim), in which case the lease
// silently renews.
type blockLease struct {
	timeout time.Duration
	timer   *time.Timer
	expired atomic.Bool
}

// newBlockLease arms the watchdog with the first-block allowance
// (leaseStartupFactor timeouts) and returns it.
func newBlockLease(js *jobScheduler, worker string, timeout time.Duration, cancel context.CancelFunc) *blockLease {
	l := &blockLease{timeout: timeout}
	l.timer = time.AfterFunc(leaseStartupFactor*timeout, func() { l.fire(js, worker, cancel) })
	return l
}

func (l *blockLease) fire(js *jobScheduler, worker string, cancel context.CancelFunc) {
	if !js.shouldReclaim(worker) {
		l.timer.Reset(l.timeout)
		return
	}
	l.expired.Store(true)
	cancel()
}

// pause suspends the deadline (block in hand, delivering to the merge
// loop).
func (l *blockLease) pause() { l.timer.Stop() }

// arm restarts the per-block deadline (waiting on the worker again).
func (l *blockLease) arm() {
	if !l.expired.Load() {
		l.timer.Reset(l.timeout)
	}
}

// stop retires the watchdog at the end of a stream attempt.
func (l *blockLease) stop() { l.timer.Stop() }

// runLeasedRange owns one replication range's stream request run for
// the duration of a job: it repeatedly leases the range to a worker and
// streams blocks into rg.ch until the range's block budget is
// delivered, counting them in run.SkipBlocks. Workers that miss the
// circuit are sent src. Stream failures mark the worker dead and move
// on; lease expiries penalize the (worker, range) pair and move on;
// SkipBlocks replay makes every handover invisible in the merged
// result. The error budget (maxAttempts) fails the job on a cluster
// that keeps breaking rather than spinning forever.
//
// A panic on this goroutine fails the job, not the process: it is
// recovered here, the lease slot it held is freed, and the panic value
// and stack reach the merge loop as the range's error.
func (c *Coordinator) runLeasedRange(ctx context.Context, js *jobScheduler, src service.CircuitSource, run *RunRequest, rg *repRange) {
	defer close(rg.ch)
	held := "" // the worker whose lease slot this range holds
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if held != "" {
			js.release(held)
		}
		err := fmt.Errorf("panic: %v [range goroutine stack:\n%s]", r, debug.Stack())
		select {
		case rg.ch <- rangeMsg{err: err}:
		case <-ctx.Done():
		}
	}()
	attempts := 0
	// uploaded marks the workers this range has retried on after the
	// job's install there succeeded; a miss on one of them again is a
	// failure, not another install.
	uploaded := make(map[string]bool)
	prev := ""
	expired := false
	tr := obs.TraceFrom(ctx)
	bo := newRetryBackoff(50*time.Millisecond, c.hb)
	for {
		worker, err := js.acquire(ctx, rg.idx, prev, run.SkipBlocks, expired)
		if err != nil {
			return // job context ended while waiting for a live worker
		}
		held = worker
		if expired && worker != prev {
			tr.Event("steal", "range", strconv.Itoa(rg.idx), "worker", worker, "from", prev)
		} else {
			tr.Event("lease", "range", strconv.Itoa(rg.idx), "worker", worker,
				"skipBlocks", strconv.Itoa(run.SkipBlocks))
		}
		serr := func() error {
			for {
				err := c.streamRange(ctx, js, worker, run, rg)
				if errors.Is(err, errUnknownCircuit) && !uploaded[worker] {
					// Propagate the circuit, once per job and worker, and
					// retry the same worker under the same lease. A worker
					// that refuses the install fails the job, as a refused
					// run does; any other install failure falls through to
					// normal failure handling.
					uerr := js.install(ctx, worker, func() error {
						return c.installCircuit(ctx, worker, run.Hash, src)
					})
					if uerr == nil {
						uploaded[worker] = true
						continue
					}
					if errors.Is(uerr, errPermanent) {
						return uerr
					}
				}
				return err
			}
		}()
		js.release(worker)
		held = ""
		if serr == nil || ctx.Err() != nil {
			return // range complete, or the merge loop is done with us
		}
		if errors.Is(serr, errPermanent) {
			// The worker rejected the request itself; no other worker will
			// accept it either, and the worker is healthy — fail the job
			// without touching liveness.
			select {
			case rg.ch <- rangeMsg{err: serr}:
			case <-ctx.Done():
			}
			return
		}
		attempts++
		if attempts >= maxAttempts {
			select {
			case rg.ch <- rangeMsg{err: fmt.Errorf("giving up after %d attempts (last worker %s): %w", attempts, worker, serr)}:
			case <-ctx.Done():
			}
			return
		}
		expired = errors.Is(serr, errLeaseExpired)
		if expired {
			// Reclaimed, not broken: penalize the pair and reassign
			// immediately — the whole point is that someone faster is free.
			js.expire(worker, rg.idx)
			tr.Event("lease-expired", "range", strconv.Itoa(rg.idx), "worker", worker,
				"delivered", strconv.Itoa(run.SkipBlocks))
		} else {
			c.markFailed(worker, serr)
			if bo.sleep(ctx) != nil {
				return
			}
		}
		prev = worker
	}
}
