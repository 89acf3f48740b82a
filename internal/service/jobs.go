package service

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/sim"
	"repro/internal/vectors"
	"repro/internal/vr"
)

// JobState is the lifecycle state of a submitted estimation job.
type JobState string

// Job lifecycle: Submit puts a job in StateQueued; a pool worker moves
// it to StateRunning; it terminates in exactly one of StateDone,
// StateFailed or StateCancelled.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// SourceSpec selects the primary-input model of a job. The zero value
// is the paper's input model: i.i.d. Bernoulli(0.5).
type SourceSpec struct {
	// Kind is "iid" (independent Bernoulli bits, the default) or "lag"
	// (per-bit two-state Markov chains with lag-1 autocorrelation Rho).
	Kind string `json:"kind,omitempty"`
	// P is the stationary one-probability of each input bit (0 means the
	// default of 0.5).
	P float64 `json:"p,omitempty"`
	// Rho is the lag-1 autocorrelation for Kind "lag".
	Rho float64 `json:"rho,omitempty"`
}

// Factory builds the input-source factory for a circuit with the given
// number of primary inputs. Parameter ranges are checked here (not
// deferred to the vectors constructors, which panic) so bad requests
// are rejected at Validate time instead of crashing a pool worker.
// Exported for dispatchers (internal/cluster workers rebuild sources
// from the wire spec with it).
func (s SourceSpec) Factory(width int) (vectors.Factory, error) {
	p := s.P
	if p == 0 {
		p = 0.5
	}
	if p < 0 || p > 1 {
		return nil, fmt.Errorf("service: source probability %g out of [0,1]", s.P)
	}
	switch s.Kind {
	case "", "iid":
		return vectors.IIDFactory(width, p), nil
	case "lag":
		if s.Rho < 0 || s.Rho >= 1 {
			return nil, fmt.Errorf("service: lag-1 correlation %g out of [0,1)", s.Rho)
		}
		return vectors.LagCorrelatedFactory(width, p, s.Rho), nil
	default:
		return nil, fmt.Errorf("service: unknown source kind %q (want \"iid\" or \"lag\")", s.Kind)
	}
}

// OptionsSpec is the client-settable subset of core.Options. Zero
// fields keep the paper defaults (DefaultOptions), so an empty object
// is a valid request. How a job is laid out over goroutines and
// cluster workers is the system's choice (core.Ranges); no field sets
// it.
type OptionsSpec struct {
	// RelErr and Confidence override the accuracy specification
	// (defaults 0.05 and 0.99).
	RelErr     float64 `json:"relErr,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	// Alpha is the randomness-test significance level (default 0.20).
	Alpha float64 `json:"alpha,omitempty"`
	// SeqLen is the randomness-test sequence length (default 320).
	SeqLen int `json:"seqLen,omitempty"`
	// Replications is the number of parallel replications, run on the
	// compiled engine 64 lanes per machine word and up to 512 per session
	// (default 64, one lane word; at most maxReplications).
	Replications int `json:"replications,omitempty"`
	// Deprecated: Workers has no effect; the estimator lays out
	// replications by core.Ranges on GOMAXPROCS goroutines. The field
	// remains only because the benchmark module still sets it, and
	// Validate still rejects a negative value.
	Workers int `json:"workers,omitempty"`
	// MaxSamples caps the sample budget (default 2^21; at most
	// maxSampleBudget).
	MaxSamples int `json:"maxSamples,omitempty"`
	// PowerMode selects the sampled-cycle observation scenario:
	// "general-delay" (event-driven, glitches included — the default) or
	// "zero-delay" (functional transitions only, observed word-parallel
	// by the compiled engine). Unknown values fail Validate, so bad
	// requests are rejected at submit time.
	PowerMode string `json:"powerMode,omitempty"`
	// Variance selects a variance-reduction transform for the sampling
	// phase: "" or "none" (plain), "antithetic" (mirrored replication
	// pairs) or "control-variate" (zero-delay toggle covariate; needs
	// general-delay sampling). Unknown values and invalid combinations
	// fail Validate at submit time.
	Variance string `json:"variance,omitempty"`
	// Breakdown enables per-node power attribution: the result gains a
	// ranked per-gate dynamic+leakage breakdown (inline top rows plus the
	// full ranking at GET /v1/jobs/{id}/breakdown). It augments the
	// result rather than changing the estimate, but it still participates
	// in the result cache key — a cached scalar-only result cannot answer
	// a breakdown request.
	Breakdown bool `json:"breakdown,omitempty"`
}

// Options expands the spec over the paper defaults into complete
// options: the power mode comes back canonical and replications 0 as
// the default of 64, so a request that spells out a default expands
// (and keys the result cache) exactly like one that leaves it out.
// Exported for dispatchers, which derive the estimator configuration
// from the wire spec.
func (o OptionsSpec) Options() core.Options {
	opts := core.DefaultOptions()
	if o.RelErr != 0 {
		opts.Spec.RelErr = o.RelErr
	}
	if o.Confidence != 0 {
		opts.Spec.Confidence = o.Confidence
	}
	if o.Alpha != 0 {
		opts.Alpha = o.Alpha
	}
	if o.SeqLen != 0 {
		opts.SeqLen = o.SeqLen
	}
	opts.Replications = sim.MaxLanes
	if o.Replications != 0 {
		opts.Replications = o.Replications
	}
	if o.MaxSamples != 0 {
		opts.MaxSamples = o.MaxSamples
	}
	opts.Mode = power.PowerMode(o.PowerMode).Canonical()
	opts.Variance.Mode = vr.Mode(o.Variance).Canonical()
	opts.Breakdown = o.Breakdown
	return opts
}

// JobRequest is one estimation request. Identical requests (same
// circuit content, source, seed and options) produce bit-identical
// results: the estimator's replication seeding is fixed and merge order
// is deterministic, independent of pool scheduling.
type JobRequest struct {
	// Circuit names a registry circuit (built-in benchmark or upload).
	Circuit string `json:"circuit"`
	// Source selects the primary-input model.
	Source SourceSpec `json:"source"`
	// Seed is the base seed of the run (replication r uses Seed+1+r).
	Seed int64 `json:"seed"`
	// Options overrides estimation tunables; zero fields keep defaults.
	Options OptionsSpec `json:"options"`
	// Interval, if non-nil, fixes the independence interval and skips
	// the Fig. 2 selection procedure.
	Interval *int `json:"interval,omitempty"`
}

// Upper bounds on the sizes a job may ask for. They limit outside
// input and are not options: each sits far above every real use (the
// defaults are 64 replications and 2^21 samples, and interval selection
// stops at 64 cycles). The first two keep one request from exhausting a
// server's or a worker's memory — phase 1 allocates SeqLen samples up
// front (SeqLen is at most MaxSamples), and the tail builds one session
// per 512 replications. MaxFixedInterval bounds the hidden cycles one
// sample may cost, and with them the CPU time of a worker's
// fast-forward; a worker's run request shares it.
const (
	maxReplications  = 4096
	maxSampleBudget  = 1 << 24
	MaxFixedInterval = 1 << 16
)

// Validate rejects specs that expand to invalid options, and specs
// larger than a server or worker accepts.
func (o OptionsSpec) Validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("service: negative workers %d", o.Workers)
	}
	opts := o.Options()
	if opts.Replications > maxReplications {
		return fmt.Errorf("service: %d replications above the limit of %d", opts.Replications, maxReplications)
	}
	if opts.MaxSamples > maxSampleBudget {
		return fmt.Errorf("service: sample budget %d above the limit of %d", opts.MaxSamples, maxSampleBudget)
	}
	return opts.Validate()
}

// Validate rejects requests the pool would fail on anyway, and requests
// larger than the server accepts.
func (r JobRequest) Validate() error {
	if r.Circuit == "" {
		return errors.New("service: request missing circuit name")
	}
	if r.Interval != nil && *r.Interval < 0 {
		return fmt.Errorf("service: negative interval %d", *r.Interval)
	}
	if r.Interval != nil && *r.Interval > MaxFixedInterval {
		return fmt.Errorf("service: interval %d above the limit of %d", *r.Interval, MaxFixedInterval)
	}
	if _, err := r.Source.Factory(1); err != nil {
		return err
	}
	return r.Options.Validate()
}

// jsonFinite maps non-finite values to -1 for JSON transport: a
// stopping criterion's half-width is +Inf until it has enough samples
// to bound the estimate, and encoding/json cannot represent ±Inf (the
// whole response would fail to encode). Half-widths are otherwise
// nonnegative, so -1 unambiguously means "no finite bound yet".
func jsonFinite(x float64) float64 {
	if math.IsInf(x, 0) || math.IsNaN(x) {
		return -1
	}
	return x
}

// ResultView is the JSON rendering of a finished estimation.
// HalfWidth and RelHalfWidth are -1 when the run ended before the
// criterion could bound the estimate (see jsonFinite).
type ResultView struct {
	Power          float64 `json:"power"`
	Interval       int     `json:"interval"`
	IntervalCapped bool    `json:"intervalCapped,omitempty"`
	SampleSize     int     `json:"sampleSize"`
	HalfWidth      float64 `json:"halfWidth"`
	RelHalfWidth   float64 `json:"relHalfWidth"`
	HiddenCycles   uint64  `json:"hiddenCycles"`
	SampledCycles  uint64  `json:"sampledCycles"`
	Criterion      string  `json:"criterion"`
	Engine         string  `json:"engine"`
	DelayModel     string  `json:"delayModel"`
	Variance       string  `json:"variance,omitempty"`
	CVBeta         float64 `json:"cvBeta,omitempty"`
	Converged      bool    `json:"converged"`
	ElapsedMS      float64 `json:"elapsedMs"`
	// Cached marks a result served from the result cache instead of a
	// fresh run; by determinism the two are bit-identical (ElapsedMS
	// reports the original run's cost).
	Cached bool `json:"cached,omitempty"`
	// Trace summarizes the job's lifecycle trace; the ordered span list
	// is at GET /v1/jobs/{id}/trace.
	Trace *TraceSummary `json:"trace,omitempty"`
	// Breakdown carries the per-node power attribution summary (requests
	// with options.breakdown only).
	Breakdown *BreakdownView `json:"breakdown,omitempty"`
}

// breakdownTopN bounds the ranked rows a ResultView carries inline; the
// complete ranking is at GET /v1/jobs/{id}/breakdown.
const breakdownTopN = 20

// BreakdownView is the JSON rendering of a per-node power breakdown:
// report totals plus the top-ranked rows. The full per-node ranking can
// run to tens of thousands of rows on the large benchmarks, so it stays
// out of the inline view and the journal; the dump endpoint serves it
// from the retained report.
type BreakdownView struct {
	// Observations is the sampled-cycle count the toggle counts cover.
	Observations uint64 `json:"observations"`
	// Dynamic and Leakage are the report's total watts.
	Dynamic float64 `json:"dynamic"`
	Leakage float64 `json:"leakage"`
	// Nodes is the number of ranked rows in the full report (gates and
	// latches; inputs and constants are excluded from ranking).
	Nodes int `json:"nodes"`
	// Top is the head of the ranking (up to breakdownTopN rows).
	Top []power.BreakdownRow `json:"top,omitempty"`
	// Modules aggregates the ranking by hierarchical module prefix
	// (absent for flat netlists).
	Modules []power.ModuleRow `json:"modules,omitempty"`
	// Full is the complete report, retained in memory for the dump
	// endpoint but deliberately never journaled; a job restored from the
	// journal serves Top there instead.
	Full *power.BreakdownReport `json:"-"`
}

func viewBreakdown(rep *power.BreakdownReport) *BreakdownView {
	if rep == nil {
		return nil
	}
	return &BreakdownView{
		Observations: rep.Observations,
		Dynamic:      rep.Dynamic,
		Leakage:      rep.Leakage,
		Nodes:        len(rep.Rows),
		Top:          rep.TopRows(breakdownTopN),
		Modules:      rep.Modules,
		Full:         rep,
	}
}

// TraceSummary condenses a job's lifecycle trace into its result view.
type TraceSummary struct {
	// Spans is the recorded span count (submit through stop).
	Spans int `json:"spans"`
	// Dropped counts spans discarded after the trace cap.
	Dropped int `json:"dropped,omitempty"`
	// LastMS is the timestamp of the final span, milliseconds since
	// submission (monotonic across restarts for resumed jobs).
	LastMS float64 `json:"lastMs"`
}

func viewResult(res core.Result) *ResultView {
	return &ResultView{
		Power:          res.Power,
		Interval:       res.Interval,
		IntervalCapped: res.IntervalCapped,
		SampleSize:     res.SampleSize,
		HalfWidth:      jsonFinite(res.HalfWidth),
		RelHalfWidth:   jsonFinite(res.RelHalfWidth()),
		HiddenCycles:   res.HiddenCycles,
		SampledCycles:  res.SampledCycles,
		Criterion:      res.Criterion,
		Engine:         res.Engine,
		DelayModel:     res.DelayModel,
		Variance:       res.Variance,
		CVBeta:         res.CVBeta,
		Converged:      res.Converged,
		ElapsedMS:      float64(res.Elapsed) / float64(time.Millisecond),
		Breakdown:      viewBreakdown(res.Breakdown),
	}
}

// ProgressView is the JSON rendering of a live progress snapshot.
// HalfWidth is -1 while the criterion cannot bound the estimate yet
// (see jsonFinite).
type ProgressView struct {
	Samples   int     `json:"samples"`
	Power     float64 `json:"power"`
	HalfWidth float64 `json:"halfWidth"`
	Interval  int     `json:"interval"`
}

func viewProgress(p core.Progress) *ProgressView {
	return &ProgressView{
		Samples:   p.Samples,
		Power:     p.Power,
		HalfWidth: jsonFinite(p.HalfWidth),
		Interval:  p.Interval,
	}
}

// JobView is the externally visible snapshot of a job.
type JobView struct {
	ID       string        `json:"id"`
	State    JobState      `json:"state"`
	Request  JobRequest    `json:"request"`
	Progress *ProgressView `json:"progress,omitempty"`
	Result   *ResultView   `json:"result,omitempty"`
	Error    string        `json:"error,omitempty"`
}

// job is the manager-internal job record. All mutable fields are
// guarded by the owning Manager's mutex.
type job struct {
	id       string
	req      JobRequest
	state    JobState
	progress *ProgressView
	result   *ResultView
	err      string
	cancel   context.CancelFunc
	done     chan struct{} // closed on terminal state
	// ckpt is the frozen pre-sampling outcome restored from the journal
	// for a resumed job (nil otherwise).
	ckpt *Checkpoint
	// src is the journaled provenance of the circuit a restored
	// checkpoint was prepared on (nil otherwise). It is set before the
	// pool starts and never changes.
	src *CircuitSource
	// cacheKey is the job's result key ("" when the circuit provenance
	// could not be resolved at submit time), under which a done job
	// answers repeats while it is in the finished-job window. run
	// re-keys it by the provenance the job actually runs on.
	cacheKey string
	// userCancel distinguishes an explicit Cancel (terminal, journaled)
	// from a shutdown-drain cancellation (not journaled, so the job
	// replays as resumable on restart).
	userCancel bool
	// progSamples is the sample count at the last journaled progress
	// record (throttle state).
	progSamples int
	// trace is the job's lifecycle span list (submit → … → stop),
	// threaded into phase 1 and the dispatcher through the job context.
	// For a resumed job the journaled pre-restart spans are imported
	// first.
	trace *obs.Trace
}

// maxFinishedJobs bounds the finished-job window: a Manager keeps only
// its newest finished jobs and forgets the oldest first. Queued and
// running jobs are never evicted. It is the one bound on finished
// results: the result cache is the window's index, so no result, and
// no breakdown report, outlives the jobs in the window.
const maxFinishedJobs = 256

// PoolStats is a snapshot of the job pool: the jobs queued and running
// now, and how many jobs ended in each terminal state over the
// manager's lifetime (journal replays included), whether or not they
// are still in the finished-job window.
type PoolStats struct {
	Workers   int `json:"workers"`
	QueueCap  int `json:"queueCap"`
	Queued    int `json:"queued"`
	Running   int `json:"running"`
	Done      int `json:"done"`
	Failed    int `json:"failed"`
	Cancelled int `json:"cancelled"`
}

// ErrQueueFull is returned by Submit when the pending-job queue is at
// capacity; clients should retry with backoff.
var ErrQueueFull = errors.New("service: job queue full")

// ErrClosed is returned by Submit once the manager is draining: a job
// accepted after Close would sit queued forever with no pool worker
// left to run it (and leak any Wait caller blocked on it).
var ErrClosed = errors.New("service: job manager is shut down")

// ErrUnknownJob is returned for a job ID the manager never issued.
var ErrUnknownJob = errors.New("service: unknown job")

// ErrJobEvicted is returned for a job ID the manager issued whose
// finished job has left the finished-job window. A repeat of its
// request hits the result cache only if a later job holding the same
// result is still in the window; otherwise it runs again, to the
// bit-identical result.
var ErrJobEvicted = errors.New("service: job evicted from the finished-job window")

// Manager owns the asynchronous job lifecycle: a bounded FIFO queue
// feeding a fixed worker pool, with per-job cancellation and live
// progress. Queued and running jobs stay queryable until they finish;
// finished ones until they leave the finished-job window
// (maxFinishedJobs), after which their IDs answer ErrJobEvicted.
//
// The window is also the result cache: Submit answers a request whose
// result key a done job in the window holds with a copy of that job's
// result, so a repeat costs no run while an earlier run of it (or a
// served copy, which renews the key) is among the newest
// maxFinishedJobs finished jobs.
type Manager struct {
	reg      *Registry
	dispatch Dispatcher
	workers  int
	store    *JobStore // nil = in-memory only

	ctx   context.Context // parent of every job context
	stop  context.CancelFunc
	queue chan *job
	wg    sync.WaitGroup

	met *serviceMetrics
	log *slog.Logger

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // submission order of the jobs in the table, for List
	finished []string // the finished jobs in the table, oldest first
	// results indexes the window by result key: each key maps to the
	// newest done job in the window holding that key's result.
	results map[string]*job
	// counts holds the number of queued and running jobs and the
	// lifetime number of jobs in each terminal state, evicted jobs
	// included; every state change updates it.
	counts map[JobState]int
	seq    uint64
	closed bool
}

// NewManager starts a pool of `workers` goroutines (default 2 if
// non-positive) consuming a queue of up to queueCap pending jobs
// (default 64), executing each job through the dispatcher (the local
// in-process dispatcher if nil). Each job may itself fan out over
// GOMAXPROCS simulation goroutines (or cluster workers), so the pool
// size bounds concurrent *jobs*, not goroutines.
//
// A non-nil store makes the manager durable: the journal replayed at
// store open is folded back in before the pool starts — terminal jobs
// become queryable again (and the done ones answer repeats again),
// every other journaled job is re-enqueued and resumed from its
// checkpoint. The manager owns the store from here and closes it on
// Close.
func NewManager(reg *Registry, dispatch Dispatcher, workers, queueCap int, store *JobStore) *Manager {
	return NewManagerObs(reg, dispatch, workers, queueCap, store, nil, nil)
}

// NewManagerObs is NewManager with observability attached: job-lifecycle
// metrics register on obsReg (an internal registry backs the same cells
// when nil, so /v1/stats counters are always real) and structured
// lifecycle events go to log (nil discards).
func NewManagerObs(reg *Registry, dispatch Dispatcher, workers, queueCap int, store *JobStore, obsReg *obs.Registry, log *slog.Logger) *Manager {
	if dispatch == nil {
		dispatch = NewLocalDispatcher()
	}
	if workers <= 0 {
		workers = 2
	}
	if queueCap <= 0 {
		queueCap = 64
	}
	var restored []RestoredJob
	if store != nil {
		restored = store.Restored()
		// The journal can hold more pending jobs than the configured
		// queue; restoring must never drop one.
		if queueCap < len(restored) {
			queueCap = len(restored)
		}
	}
	if obsReg == nil {
		obsReg = obs.NewRegistry() // internal: counters stay real, just unscraped
	}
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	met := newServiceMetrics(obsReg)
	ctx, stop := context.WithCancel(context.Background())
	m := &Manager{
		reg:      reg,
		dispatch: dispatch,
		workers:  workers,
		store:    store,
		met:      met,
		log:      log.With("component", "jobs"),
		ctx:      ctx,
		stop:     stop,
		queue:    make(chan *job, queueCap),
		jobs:     make(map[string]*job),
		results:  make(map[string]*job),
		counts:   make(map[JobState]int),
	}
	m.registerStateGauges(obsReg)
	m.restore(restored)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// restore folds replayed journal records into the job table before the
// pool starts: terminal jobs are installed finished (their done channel
// already closed, their checkpoints dropped) and enter the finished-job
// window in journal order, so only the newest stay and answer repeats;
// everything else is re-enqueued with its checkpoint attached. ID
// sequencing continues from the highest replayed ID so restarts never
// reuse a job ID.
func (m *Manager) restore(restored []RestoredJob) {
	for _, r := range restored {
		j := &job{
			id:       r.ID,
			req:      r.Req,
			state:    r.State,
			progress: r.Progress,
			result:   r.Result,
			err:      r.Error,
			done:     make(chan struct{}),
			trace:    obs.NewTrace(),
		}
		// Spans journaled before the restart splice in ahead of anything
		// the resumed run records, keeping one monotonic lifecycle.
		j.trace.Import(r.Spans)
		if r.Source != nil {
			j.cacheKey = resultKey(*r.Source, r.Req)
		} else if src, err := m.reg.Source(r.Req.Circuit); err == nil {
			j.cacheKey = resultKey(src, r.Req)
		}
		if j.state.Terminal() {
			close(j.done)
		} else {
			j.state = StateQueued
			j.ckpt, j.src = r.Checkpoint, r.Source
			j.trace.Event("restore")
			m.queue <- j // capacity >= len(restored) by construction
			m.log.Info("job resumed from journal", "job", j.id, "circuit", j.req.Circuit)
		}
		m.addLocked(j)
		if j.state.Terminal() {
			m.retireLocked(j)
		}
		var n uint64
		if _, err := fmt.Sscanf(j.id, "job-%d", &n); err == nil && n > m.seq {
			m.seq = n
		}
	}
}

// Submit validates and enqueues a request, returning the new job's
// snapshot, taken under the same lock. The non-blocking enqueue and the
// registration happen under one lock so a full queue never leaves a
// half-registered job behind. A request whose result key a done job in
// the finished-job window holds skips the queue entirely: the job is
// registered terminal with a copy of that job's (bit-identical) result,
// and the returned snapshot carries it even if later jobs push this one
// out of the window before the caller reads it.
func (m *Manager) Submit(req JobRequest) (JobView, error) {
	if err := req.Validate(); err != nil {
		return JobView{}, err
	}
	// Provenance resolution happens outside the manager lock (it takes
	// the registry lock); an unresolvable circuit just bypasses the
	// cache and fails later in run() with the precise error.
	cacheKey := ""
	if src, err := m.reg.Source(req.Circuit); err == nil {
		cacheKey = resultKey(src, req)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobView{}, ErrClosed
	}
	j := &job{
		id:       fmt.Sprintf("job-%06d", m.seq+1),
		req:      req,
		state:    StateQueued,
		done:     make(chan struct{}),
		cacheKey: cacheKey,
		trace:    obs.NewTrace(),
	}
	j.trace.Event("submit", "circuit", req.Circuit)
	if cacheKey != "" {
		if holder, ok := m.results[cacheKey]; ok {
			m.met.cacheHits.Inc()
			// The copy is marked served, and its trace summary is this
			// job's, which finishLocked fills in.
			rv := *holder.result
			rv.Cached, rv.Trace = true, nil
			m.seq++
			m.addLocked(j)
			m.journal(storeRecord{Kind: "submit", ID: j.id, Req: &req})
			j.trace.Event("cache-hit")
			m.met.submitted.Inc()
			m.finishLocked(j, StateDone, &rv, "")
			return m.viewLocked(j), nil
		}
		m.met.cacheMisses.Inc()
	}
	select {
	case m.queue <- j:
	default:
		return JobView{}, ErrQueueFull
	}
	m.seq++
	m.addLocked(j)
	m.journal(storeRecord{Kind: "submit", ID: j.id, Req: &req})
	m.met.submitted.Inc()
	m.log.Info("job submitted", "job", j.id, "circuit", req.Circuit)
	return m.viewLocked(j), nil
}

// addLocked enters a new job into the table and the state counts.
// Caller holds m.mu.
func (m *Manager) addLocked(j *job) {
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.counts[j.state]++
}

// setStateLocked moves a job to state, keeping the state counts. Caller
// holds m.mu.
func (m *Manager) setStateLocked(j *job, state JobState) {
	m.counts[j.state]--
	m.counts[state]++
	j.state = state
}

// retireLocked enters a finished job into the finished-job window, and a
// done one into the window's result index as its key's newest holder,
// then evicts the oldest finished jobs while the window holds more than
// maxFinishedJobs. An evicted job leaves the index only if it still
// holds its key: a newer holder of the key outlives it in the window.
// Caller holds m.mu.
func (m *Manager) retireLocked(j *job) {
	m.finished = append(m.finished, j.id)
	if j.state == StateDone && j.result != nil && j.cacheKey != "" {
		m.results[j.cacheKey] = j
	}
	for len(m.finished) > maxFinishedJobs {
		id := m.finished[0]
		m.finished = m.finished[1:]
		if old := m.jobs[id]; m.results[old.cacheKey] == old {
			delete(m.results, old.cacheKey)
		}
		delete(m.jobs, id)
		if i := slices.Index(m.order, id); i >= 0 {
			m.order = slices.Delete(m.order, i, i+1)
		}
	}
}

// lookupLocked returns the job with the given ID, or ErrJobEvicted for
// an ID the manager issued (at or below m.seq) that has left the
// table, or else ErrUnknownJob. Caller holds m.mu.
func (m *Manager) lookupLocked(id string) (*job, error) {
	if j, ok := m.jobs[id]; ok {
		return j, nil
	}
	var n uint64
	if _, err := fmt.Sscanf(id, "job-%d", &n); err == nil && n >= 1 && n <= m.seq && id == fmt.Sprintf("job-%06d", n) {
		return nil, fmt.Errorf("%w: %q", ErrJobEvicted, id)
	}
	return nil, fmt.Errorf("%w %q", ErrUnknownJob, id)
}

// Trace returns the job's recorded lifecycle spans.
func (m *Manager) Trace(id string) (JobTrace, error) {
	m.mu.Lock()
	j, err := m.lookupLocked(id)
	var state JobState
	if err == nil {
		state = j.state
	}
	m.mu.Unlock()
	if err != nil {
		return JobTrace{}, err
	}
	return JobTrace{
		ID:      id,
		State:   state,
		Spans:   j.trace.Spans(),
		Dropped: j.trace.Dropped(),
	}, nil
}

// JobBreakdown is the full per-node power attribution of one job, the
// body of GET /v1/jobs/{id}/breakdown.
type JobBreakdown struct {
	ID    string   `json:"id"`
	State JobState `json:"state"`
	// Report is the complete attribution (nil until a breakdown-enabled
	// job finishes).
	Report *power.BreakdownReport `json:"report,omitempty"`
	// Truncated marks a job restored from the journal: the full ranking
	// is not persisted, so the report carries only the inline top rows.
	Truncated bool `json:"truncated,omitempty"`
}

// Breakdown returns the job's per-node power attribution, or the
// lookup error of a job that is not in the table; Report stays nil
// until a job submitted with options.breakdown reaches StateDone.
func (m *Manager) Breakdown(id string) (JobBreakdown, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(id)
	if err != nil {
		return JobBreakdown{}, err
	}
	out := JobBreakdown{ID: id, State: j.state}
	if j.result != nil && j.result.Breakdown != nil {
		bv := j.result.Breakdown
		if bv.Full != nil {
			out.Report = bv.Full
		} else {
			// Restored from the journal, where only the summary survives:
			// rebuild a report from the inline rows and say so.
			out.Report = &power.BreakdownReport{
				Observations: bv.Observations,
				Dynamic:      bv.Dynamic,
				Leakage:      bv.Leakage,
				Rows:         bv.Top,
				Modules:      bv.Modules,
			}
			out.Truncated = true
		}
	}
	return out, nil
}

// JobTrace is the JSON rendering of a job's lifecycle trace: the
// ordered span list from submit to stop, with per-span millisecond
// offsets from submission (monotonic across restarts for resumed jobs).
type JobTrace struct {
	ID      string     `json:"id"`
	State   JobState   `json:"state"`
	Spans   []obs.Span `json:"spans"`
	Dropped int        `json:"dropped,omitempty"`
}

// Get returns a snapshot of the job, or ErrJobEvicted or ErrUnknownJob
// for a job that is not in the table.
func (m *Manager) Get(id string) (JobView, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, err := m.lookupLocked(id)
	if err != nil {
		return JobView{}, err
	}
	return m.viewLocked(j), nil
}

// Wait blocks until the job reaches a terminal state or the context is
// done, and returns the final snapshot, even if the job has left the
// finished-job window meanwhile.
func (m *Manager) Wait(ctx context.Context, id string) (JobView, error) {
	m.mu.Lock()
	j, err := m.lookupLocked(id)
	m.mu.Unlock()
	if err != nil {
		return JobView{}, err
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		return JobView{}, ctx.Err()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked(j), nil
}

// Cancel requests cancellation of a job. Queued jobs terminate
// immediately; running jobs stop at the next stopping-criterion block.
// Cancelling a terminal job is a no-op; a job that is not in the table
// returns its lookup error.
func (m *Manager) Cancel(id string) (JobView, error) {
	m.mu.Lock()
	j, err := m.lookupLocked(id)
	if err != nil {
		m.mu.Unlock()
		return JobView{}, err
	}
	switch j.state {
	case StateQueued:
		j.userCancel = true
		m.finishLocked(j, StateCancelled, nil, "cancelled before start")
	case StateRunning:
		j.userCancel = true
		if j.cancel != nil {
			j.cancel()
		}
	}
	view := m.viewLocked(j)
	m.mu.Unlock()
	return view, nil
}

// List returns snapshots of the jobs in the table, queued, running and
// the finished-job window, in submission order.
func (m *Manager) List() []JobView {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobView, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.viewLocked(m.jobs[id]))
	}
	return out
}

// Stats returns a snapshot of the pool counters: the jobs queued and
// running now, and the lifetime totals of each terminal state, jobs
// evicted from the finished-job window included.
func (m *Manager) Stats() PoolStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return PoolStats{
		Workers:   m.workers,
		QueueCap:  cap(m.queue),
		Queued:    m.counts[StateQueued],
		Running:   m.counts[StateRunning],
		Done:      m.counts[StateDone],
		Failed:    m.counts[StateFailed],
		Cancelled: m.counts[StateCancelled],
	}
}

// Close drains the pool: it rejects further submissions, cancels every
// live job (queued jobs terminate immediately; running jobs stop at
// their next stopping-criterion block) and waits until every pool
// worker has retired — no in-flight estimation goroutine survives the
// call. Safe to call more than once; Submit afterwards returns
// ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	m.closed = true
	for _, j := range m.jobs {
		if j.state == StateQueued {
			m.finishLocked(j, StateCancelled, nil, "service shutting down")
		}
	}
	m.mu.Unlock()
	m.stop()
	m.wg.Wait()
	if m.store != nil {
		// Flush after the pool retires so every record of the drain —
		// including checkpoints written moments ago — reaches disk.
		if err := m.store.Close(); err != nil {
			m.log.Error("journal close failed", "err", err)
		}
	}
}

// worker consumes the queue until the manager is closed.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.ctx.Done():
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one job end to end. It is the job's one front end: it
// resolves the circuit's testbench and provenance together, re-keys the
// job's result by that provenance, and hands the dispatcher the job's
// prepare hook, which runs the pre-sampling phases (or takes them from
// the journal) and journals their checkpoint, so phase 1, sampling and
// the cached result all belong to one circuit. A panic anywhere in the
// estimation stack, the hook's included, fails the job instead of
// killing the pool worker (and with it the whole server).
func (m *Manager) run(j *job) {
	ctx, cancel := context.WithCancel(m.ctx)
	defer cancel()
	defer func() {
		if r := recover(); r != nil {
			m.finish(j, StateFailed, nil, fmt.Sprintf("internal panic: %v", r))
		}
	}()

	m.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		m.mu.Unlock()
		return
	}
	m.setStateLocked(j, StateRunning)
	j.cancel = cancel
	m.mu.Unlock()
	j.trace.Event("run")
	m.log.Debug("job running", "job", j.id, "circuit", j.req.Circuit)
	ctx = obs.ContextWithTrace(ctx, j.trace)

	tb, src, err := m.resolve(j)
	if err != nil {
		m.finish(j, StateFailed, nil, err.Error())
		return
	}
	start := time.Now()
	m.mu.Lock()
	// The job runs on the circuit its name resolves to now, which a
	// re-upload since submission may have changed.
	j.cacheKey = resultKey(src, j.req)
	m.mu.Unlock()
	progress := func(p core.Progress) {
		m.mu.Lock()
		j.progress = viewProgress(p)
		due := m.store != nil && p.Samples-j.progSamples >= progressJournalEvery
		if due {
			j.progSamples = p.Samples
		}
		m.mu.Unlock()
		// Throttled merged-round snapshots let a restarted server show a
		// resumed job's last known progress; they are cosmetic for
		// correctness (the resume replays from the checkpoint), so they
		// are journaled without fsync.
		if due {
			m.journal(storeRecord{Kind: "progress", ID: j.id, Progress: viewProgress(p)})
		}
	}
	res, err := m.dispatch.Sample(ctx, tb, src, j.req, func() (core.ResumePoint, error) {
		return m.prepare(ctx, j, tb, src)
	}, progress)
	// Elapsed covers the pre-sampling phases too; a resumed job reports
	// this process's share.
	res.Elapsed = time.Since(start)
	switch {
	case errors.Is(err, context.Canceled):
		m.finish(j, StateCancelled, nil, "cancelled")
	case err != nil:
		m.finish(j, StateFailed, nil, err.Error())
	default:
		m.finish(j, StateDone, viewResult(res), "")
	}
}

// resolve returns the testbench and provenance a job runs on: for a job
// resumed from a checkpoint that journaled its circuit, that circuit,
// rebuilt from its provenance when the name no longer resolves to it
// (uploads live in memory only, and the name may have been re-uploaded
// with other text since); otherwise whatever the job's circuit name
// resolves to now.
func (m *Manager) resolve(j *job) (*core.Testbench, CircuitSource, error) {
	tb, src, err := m.reg.Resolve(j.req.Circuit)
	if j.src == nil || (err == nil && src == *j.src) {
		return tb, src, err
	}
	tb, err = j.src.Testbench()
	return tb, *j.src, err
}

// prepare is the job's prepare hook, which the dispatcher calls before
// it merges any block. It returns the job's frozen pre-sampling
// outcome: the journaled checkpoint of a resumed job, or else the
// outcome of running the pre-sampling phases (warm-up, interval
// selection and plan resolution) on the job's traced context, journaled
// with the provenance of the circuit src they ran on before it returns,
// so a restart resumes from it on that circuit instead of repeating
// them.
func (m *Manager) prepare(ctx context.Context, j *job, tb *core.Testbench, src CircuitSource) (Checkpoint, error) {
	m.mu.Lock()
	ckpt := j.ckpt
	m.mu.Unlock()
	if ckpt != nil {
		return *ckpt, nil
	}
	factory, err := j.req.Source.Factory(len(tb.Circuit.Inputs))
	if err != nil {
		return Checkpoint{}, err
	}
	rp, err := core.PreparePlanCtx(ctx, tb, factory, j.req.Seed, j.req.Options.Options(), j.req.Interval)
	if err != nil {
		return Checkpoint{}, err
	}
	// The spans so far ride along so a restart resumes the lifecycle
	// trace, not just the sampling phase.
	m.journal(storeRecord{Kind: "checkpoint", ID: j.id, Checkpoint: &rp, Source: &src, Spans: j.trace.Spans()})
	return rp, nil
}

func (m *Manager) finish(j *job, state JobState, res *ResultView, msg string) {
	m.mu.Lock()
	m.finishLocked(j, state, res, msg)
	m.mu.Unlock()
}

// finishLocked moves a job to a terminal state. Caller holds m.mu.
//
// Durability rules: terminal states are journaled — except a
// cancellation caused by the manager draining (not by an explicit
// Cancel), which is deliberately left out of the journal so the job
// replays as resumable after a restart. The job enters the finished-job
// window, and a done one answers repeats of its request from there.
func (m *Manager) finishLocked(j *job, state JobState, res *ResultView, msg string) {
	if j.state.Terminal() {
		return
	}
	j.trace.Event("stop", "state", string(state))
	if res != nil {
		if spans := j.trace.Spans(); len(spans) > 0 {
			res.Trace = &TraceSummary{
				Spans:   len(spans),
				Dropped: j.trace.Dropped(),
				LastMS:  spans[len(spans)-1].T,
			}
		}
	}
	m.setStateLocked(j, state)
	j.result = res
	j.err = msg
	// Only a queued or running job resumes from its checkpoint; a
	// finished one keeps neither it nor its cancel func alive.
	j.ckpt, j.cancel = nil, nil
	close(j.done)
	m.retireLocked(j)
	m.met.finished.With(string(state)).Inc()
	if msg != "" {
		m.log.Info("job finished", "job", j.id, "state", string(state), "err", msg)
	} else {
		m.log.Info("job finished", "job", j.id, "state", string(state))
	}
	if state == StateCancelled && m.closed && !j.userCancel {
		return // shutdown drain: resume after restart instead
	}
	m.journal(storeRecord{Kind: "state", ID: j.id, State: state, Result: res, Error: msg})
}

// journal appends rec to the job store, if there is one, and logs a
// failed append with its job and record kind; the store counts the
// failure in StoreStats.
func (m *Manager) journal(rec storeRecord) {
	if m.store == nil {
		return
	}
	if err := m.store.append(rec); err != nil {
		m.log.Error("journal append failed", "job", rec.ID, "kind", rec.Kind, "err", err)
	}
}

// progressJournalEvery throttles progress records: one journal line per
// this many newly merged samples.
const progressJournalEvery = 4096

// CacheStats snapshots the result cache: the hit and miss counters and
// the number of result keys the finished-job window holds.
func (m *Manager) CacheStats() CacheStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return CacheStats{Hits: m.met.cacheHits.Value(), Misses: m.met.cacheMisses.Value(), Entries: len(m.results)}
}

// StoreStats snapshots the job journal; nil when the manager runs
// without one.
func (m *Manager) StoreStats() *StoreStats {
	if m.store == nil {
		return nil
	}
	st := m.store.Stats()
	return &st
}

// viewLocked snapshots a job. Caller holds m.mu.
func (m *Manager) viewLocked(j *job) JobView {
	v := JobView{
		ID:      j.id,
		State:   j.state,
		Request: j.req,
		Error:   j.err,
	}
	if j.progress != nil {
		p := *j.progress
		v.Progress = &p
	}
	if j.result != nil {
		r := *j.result
		v.Result = &r
	}
	return v
}
