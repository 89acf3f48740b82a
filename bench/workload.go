package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/service"
)

// workload is one seeded stream of estimation requests and the entry
// point it drives them through. The workload seed generates every
// request; the program under test only ever sees the requests.
type workload struct {
	name string
	why  string
	// callers is the number of closed-loop callers: each sends its next
	// request only after the previous one returned.
	callers int
	// entry is the entry point: entryInProcess calls the parallel
	// estimator the way dipe does, entryService submits to a loopback
	// dipe-server with the local dispatcher, entryCluster to one whose
	// dispatcher is a coordinator with two loopback workers.
	entry string
	// circuits are the circuits the requests use, and classes the
	// option classes.
	circuits []string
	classes  []string
	// jobWorkers is options.workers, the per-job goroutine pool, of
	// every request (0: the default of GOMAXPROCS).
	jobWorkers int
	// request builds the i-th request from the generator's random stream.
	request func(w *workload, g *generator) (service.JobRequest, string)
	// maxOps caps the requests of one window (0: the window length alone
	// bounds it; the smoke test sets a cap).
	maxOps int
}

const (
	entryInProcess = "in-process"
	entryService   = "service"
	entryCluster   = "cluster"
)

// The option classes of the service mix. Every other workload sends
// one class only.
const (
	classGD        = "gd"
	classZD        = "zd"
	classCV        = "cv"
	classAnti      = "anti"
	classBreakdown = "breakdown"
)

func workloads() []*workload {
	return []*workload{
		{
			name:     "select-s38417-zd",
			why:      "dipe on s38417, zero-delay, 64 replications: serial phase 1 (warm-up and Fig. 2 interval selection) is over 90% of each estimate",
			callers:  1,
			entry:    entryInProcess,
			circuits: []string{"s38417"},
			classes:  []string{classZD},
			request:  single,
		},
		{
			name:     "default-s1494-gd",
			why:      "dipe on the default configuration (general-delay, 64 replications): event-driven observation dominates phase 1 and the tail",
			callers:  1,
			entry:    entryInProcess,
			circuits: []string{"s1494"},
			classes:  []string{classGD},
			request:  single,
		},
		{
			name:       "cluster-s38417-tail",
			why:        "dipe-server with a 2-worker cluster, fixed interval 8, 2% error, one goroutine per range: no interval selection, so compiled tail steps, leases and streams carry the time",
			callers:    1,
			entry:      entryCluster,
			circuits:   []string{"s38417"},
			classes:    []string{classZD},
			jobWorkers: 1,
			request:    clusterTail,
		},
		{
			name:     "service-mix-small",
			why:      "dipe-server, 2 clients, small circuits, five option classes and 25% repeats: queueing, HTTP, the registry and the result cache are a visible share",
			callers:  2,
			entry:    entryService,
			circuits: []string{"s1494", "s832"},
			classes:  []string{classGD, classZD, classCV, classAnti, classBreakdown},
			request:  serviceMix,
		},
	}
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads() {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// classOptions returns the request options of an option class. All
// classes keep the paper's 5% / 0.99 spec and 64 replications.
func classOptions(class string) service.OptionsSpec {
	o := service.OptionsSpec{Replications: 64}
	switch class {
	case classZD:
		o.PowerMode = "zero-delay"
	case classCV:
		o.Variance = "control-variate"
	case classAnti:
		o.Variance = "antithetic"
	case classBreakdown:
		o.Breakdown = true
	}
	return o
}

// options returns the options of the workload's requests of a class.
func (w *workload) options(class string) service.OptionsSpec {
	o := classOptions(class)
	o.Workers = w.jobWorkers
	return o
}

// newSeed draws a base seed. Replication r of a request runs on
// seed+1+r, so the draw stays far below the int64 limit.
func newSeed(rng *rand.Rand) int64 { return rng.Int63n(1 << 48) }

// single sends the workload's one option class on its one circuit,
// each request with a fresh seed.
func single(w *workload, g *generator) (service.JobRequest, string) {
	class := w.classes[0]
	return service.JobRequest{Circuit: w.circuits[0], Seed: newSeed(g.rng), Options: w.options(class)}, class
}

// clusterTail pins the independence interval, so no request runs
// interval selection, and asks for 2% error, so the sampled tail is
// several times the warm-up. Its workload runs each job with one
// goroutine per leased range (jobWorkers 1): on the cluster the ranges
// are the parallelism, and the default pool of GOMAXPROCS goroutines
// cuts every range into narrower sessions, which tripled job latency
// and made it vary by a third from job to job.
func clusterTail(w *workload, g *generator) (service.JobRequest, string) {
	interval := 8
	class := w.classes[0]
	opts := w.options(class)
	opts.RelErr = 0.02
	return service.JobRequest{Circuit: w.circuits[0], Seed: newSeed(g.rng), Options: opts, Interval: &interval}, class
}

// mixSlot is one job of a service-mix round: a repeat, or a fresh
// request of a class on one of the workload's circuits.
type mixSlot struct {
	repeat  bool
	class   string
	circuit int // index into workload.circuits
}

// mixRound is one round of the service mix: of every 80 jobs, 20 repeat
// an earlier request and 60 are fresh, with the (class, circuit) counts
// below: classes gd 40%, zd 20%, cv 15%, anti 10%, breakdown 15%, and
// about 70% s1494, 30% s832. Rounds are shuffled and drawn without
// replacement, so a window's mix is within one round of these shares
// and its median latency does not move with the luck of the draw.
var mixRound = []struct {
	class string
	n     [2]int // jobs per circuit
}{
	{classGD, [2]int{17, 7}},
	{classZD, [2]int{8, 4}},
	{classCV, [2]int{6, 3}},
	{classAnti, [2]int{4, 2}},
	{classBreakdown, [2]int{6, 3}},
}

const mixRepeats = 20

// serviceMix deals the next job of the current round. A repeat takes an
// earlier request uniformly, skipping the two most recent: they may
// still be running, and a repeat of a running job misses the result
// cache. A repeat with nothing to repeat yet is skipped.
func serviceMix(w *workload, g *generator) (service.JobRequest, string) {
	for {
		if len(g.deck) == 0 {
			for range mixRepeats {
				g.deck = append(g.deck, mixSlot{repeat: true})
			}
			for _, r := range mixRound {
				for c, n := range r.n {
					for range n {
						g.deck = append(g.deck, mixSlot{class: r.class, circuit: c})
					}
				}
			}
			g.rng.Shuffle(len(g.deck), func(i, j int) { g.deck[i], g.deck[j] = g.deck[j], g.deck[i] })
		}
		slot := g.deck[0]
		g.deck = g.deck[1:]
		if !slot.repeat {
			return service.JobRequest{Circuit: w.circuits[slot.circuit], Seed: newSeed(g.rng), Options: w.options(slot.class)}, slot.class
		}
		if n := len(g.issued) - 2; n > 0 {
			prev := g.issued[g.rng.Intn(n)]
			return prev.Req, prev.Class
		}
	}
}

// warmupRequest is the discarded job each setup runs per circuit, so
// that lazy work (compilation, circuit installation on cluster workers)
// is paid before the timed window. It has the workload's first class, a
// fixed interval and 25% error, so it runs the tail's code without the
// cost of a full estimate.
func (w *workload) warmupRequest(circuit string, seed int64) service.JobRequest {
	interval := 1
	opts := w.options(w.classes[0])
	opts.RelErr = 0.25
	return service.JobRequest{Circuit: circuit, Seed: seed, Options: opts, Interval: &interval}
}

// smokeWorkloads are the workloads at the smoke test's size: s298 in
// place of s38417, and a fixed number of ops.
func smokeWorkloads() []*workload {
	ws := workloads()
	for _, w := range ws {
		for i, c := range w.circuits {
			if c == "s38417" {
				w.circuits[i] = "s298"
			}
		}
		w.maxOps = 2
		if w.entry == entryService {
			w.maxOps = 8
		}
	}
	return ws
}

// op is one request of the timed window and what became of it.
type op struct {
	ID    int
	Class string
	Req   service.JobRequest
	// Start and End bracket the call as the caller saw it.
	Start, End time.Time
	Res        result
	Err        string
	// Service and cluster entry points only.
	JobID  string
	Leases int
	Steals int
	Blocks int // merged sample blocks
}

func (o *op) latency() float64 { return o.End.Sub(o.Start).Seconds() }

// key identifies the request; identical keys must give identical results.
func (o *op) key() string {
	b, _ := json.Marshal(o.Req) // a plain struct of numbers and strings cannot fail to encode
	return string(b)
}

// generator hands out the workload's requests in a fixed order. Which
// caller receives which request depends on timing; the sequence does not.
type generator struct {
	mu     sync.Mutex
	w      *workload
	rng    *rand.Rand
	issued []*op
	limit  int       // 0: unlimited
	deck   []mixSlot // the service mix's undealt jobs
}

func newGenerator(w *workload, seed int64, limit int) *generator {
	return &generator{w: w, rng: rand.New(rand.NewSource(seed)), limit: limit}
}

// next returns the next op, or nil once limit ops were handed out.
func (g *generator) next() *op {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.limit > 0 && len(g.issued) >= g.limit {
		return nil
	}
	req, class := g.w.request(g.w, g)
	o := &op{ID: len(g.issued), Class: class, Req: req}
	g.issued = append(g.issued, o)
	return o
}

// closedLoop runs the workload's callers until the deadline (or until
// the generator runs dry) and returns the issued ops in issue order.
// Requests in flight at the deadline run to completion.
func closedLoop(ctx context.Context, d target, g *generator, callers int, deadline time.Time) []*op {
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				o := g.next()
				if o == nil {
					return
				}
				d.do(ctx, o)
			}
		}()
	}
	wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]*op(nil), g.issued...)
}
