package service

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bench89"
	"repro/internal/core"
	"repro/internal/netlist"
)

// DefaultCacheSize is the frozen-circuit LRU capacity used when a
// Registry is built with a non-positive capacity.
const DefaultCacheSize = 16

// RegistryStats is a snapshot of the registry's cache behaviour. The
// Hits/Misses split is the service's cache-effectiveness signal: a
// second request for the same circuit must be a hit (no re-parse, no
// re-freeze).
type RegistryStats struct {
	// Hits counts Testbench calls answered from the LRU cache.
	Hits uint64 `json:"hits"`
	// Misses counts Testbench calls that had to parse/generate and
	// freeze the circuit.
	Misses uint64 `json:"misses"`
	// Evictions counts frozen circuits dropped by the LRU policy.
	Evictions uint64 `json:"evictions"`
	// Cached is the current number of frozen testbenches held.
	Cached int `json:"cached"`
	// Uploaded is the number of user-uploaded netlists registered.
	Uploaded int `json:"uploaded"`
}

// cacheEntry is one LRU slot: a circuit name bound to its instrumented
// testbench (frozen circuit + delay table + power model) and the
// provenance it was built from.
type cacheEntry struct {
	name string
	src  CircuitSource
	tb   *core.Testbench
}

// Registry resolves circuit names to instrumented testbenches. Names
// cover the built-in ISCAS89 benchmark set (bench89) and netlists
// uploaded at runtime; resolved testbenches are kept in an LRU cache so
// the parse/freeze/instrument cost is paid once per design, not per
// request. All methods are safe for concurrent use.
//
// Each cache entry holds a testbench with the provenance it was built
// from, and builds happen outside the registry lock, so concurrent
// first requests for distinct circuits do not serialize.
type Registry struct {
	mu        sync.Mutex
	cap       int
	order     *list.List               // front = most recently used
	cache     map[string]*list.Element // name -> element holding *cacheEntry
	uploads   map[string]CircuitSource
	hits      uint64
	misses    uint64
	evictions uint64
}

// NewRegistry builds a registry whose LRU cache holds up to capacity
// frozen testbenches (DefaultCacheSize if capacity <= 0).
func NewRegistry(capacity int) *Registry {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Registry{
		cap:     capacity,
		order:   list.New(),
		cache:   make(map[string]*list.Element),
		uploads: make(map[string]CircuitSource),
	}
}

// Upload registers a netlist under name. Format is "bench" (ISCAS89
// .bench) or "blif"; the text is parsed and frozen immediately so
// malformed netlists are rejected at upload time, and the frozen
// testbench is installed in the cache. Uploading over an existing
// uploaded name replaces it; names of built-in benchmarks are reserved.
func (r *Registry) Upload(name, format, text string) (netlist.Stats, error) {
	if name == "" {
		return netlist.Stats{}, fmt.Errorf("service: empty circuit name")
	}
	if builtin(name) {
		return netlist.Stats{}, fmt.Errorf("service: %q is a built-in benchmark name", name)
	}
	src := CircuitSource{Name: name, Format: format, Text: text}
	tb, err := src.Testbench()
	if err != nil {
		return netlist.Stats{}, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.uploads[name] = src
	r.install(name, src, tb)
	return tb.Circuit.ComputeStats(), nil
}

// Resolve returns the testbench a circuit name resolves to together
// with the provenance it was built from. The pair comes from one cache
// entry, or on a miss from one read of the name's provenance, so a
// re-upload of the name can never pair one circuit's testbench with
// another's provenance. The testbench is shared and read-only;
// sessions are created per job.
func (r *Registry) Resolve(name string) (*core.Testbench, CircuitSource, error) {
	r.mu.Lock()
	if el, ok := r.cache[name]; ok {
		r.order.MoveToFront(el)
		r.hits++
		ent := el.Value.(*cacheEntry)
		r.mu.Unlock()
		return ent.tb, ent.src, nil
	}
	r.misses++
	src := r.sourceLocked(name)
	r.mu.Unlock()

	// Build outside the lock. The build serves this lookup either way,
	// but it is installed only while the name still has the provenance
	// it was built from: an upload that landed meanwhile owns the entry.
	tb, err := src.Testbench()
	if err != nil {
		return nil, CircuitSource{}, err
	}
	r.mu.Lock()
	if r.sourceLocked(name) == src {
		r.install(name, src, tb)
	}
	r.mu.Unlock()
	return tb, src, nil
}

// install puts (name, src, tb) at the front of the LRU, evicting from
// the back if over capacity. Caller holds r.mu.
func (r *Registry) install(name string, src CircuitSource, tb *core.Testbench) {
	ent := &cacheEntry{name: name, src: src, tb: tb}
	if el, ok := r.cache[name]; ok {
		el.Value = ent
		r.order.MoveToFront(el)
		return
	}
	r.cache[name] = r.order.PushFront(ent)
	for r.order.Len() > r.cap {
		back := r.order.Back()
		ent := back.Value.(*cacheEntry)
		r.order.Remove(back)
		delete(r.cache, ent.name)
		r.evictions++
	}
}

// CircuitSource is the provenance of a registry circuit — exactly what
// is needed to rebuild its frozen form bit-identically in another
// process. Builtin circuits are regenerated from the deterministic
// bench89 generator; uploads are re-parsed from the original text with
// the original name and format, so node IDs (and with them every
// float-summation order in the simulators) come out identical to the
// coordinator's copy. This is what the cluster propagates to workers
// instead of a re-serialized netlist, which could reorder nodes.
type CircuitSource struct {
	// Builtin, when non-empty, names a built-in benchmark (bench89/s27);
	// the other fields are empty.
	Builtin string `json:"builtin,omitempty"`
	// Name, Format and Text reproduce an uploaded netlist.
	Name   string `json:"name,omitempty"`
	Format string `json:"format,omitempty"`
	Text   string `json:"text,omitempty"`
}

// Testbench builds the frozen testbench the provenance describes. It is
// the one builder: the registry's upload and miss paths and a cluster
// worker's install all call it, so the coordinator's copy and every
// worker's match by construction.
func (s CircuitSource) Testbench() (*core.Testbench, error) {
	var (
		c   *netlist.Circuit
		err error
	)
	switch {
	case s.Builtin != "":
		c, err = bench89.Get(s.Builtin)
	case s.Format == "" || s.Format == "bench":
		c, err = netlist.ParseBenchString(s.Name, s.Text)
	case s.Format == "blif":
		c, err = netlist.ParseBLIFString(s.Name, s.Text)
	default:
		err = fmt.Errorf("service: unknown netlist format %q (want \"bench\" or \"blif\")", s.Format)
	}
	if err != nil {
		return nil, err
	}
	return core.DefaultTestbench(c), nil
}

// Source returns the provenance of a resolvable circuit name.
func (r *Registry) Source(name string) (CircuitSource, error) {
	r.mu.Lock()
	src := r.sourceLocked(name)
	r.mu.Unlock()
	if src.Builtin != "" && !builtin(name) {
		return CircuitSource{}, fmt.Errorf("service: unknown circuit %q", name)
	}
	return src, nil
}

// sourceLocked returns the provenance name resolves to now: its upload,
// or else the built-in benchmark of that name (which fails to build if
// there is none). Caller holds r.mu.
func (r *Registry) sourceLocked(name string) CircuitSource {
	if src, ok := r.uploads[name]; ok {
		return src
	}
	return CircuitSource{Builtin: name}
}

// Names lists every resolvable circuit name: the built-in benchmark set
// (including s27) plus all uploads, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string{"s27"}, bench89.Names()...)
	for name := range r.uploads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Stats returns a snapshot of the cache counters.
func (r *Registry) Stats() RegistryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RegistryStats{
		Hits:      r.hits,
		Misses:    r.misses,
		Evictions: r.evictions,
		Cached:    r.order.Len(),
		Uploaded:  len(r.uploads),
	}
}

// builtin reports whether name belongs to the built-in benchmark set.
func builtin(name string) bool {
	if name == "s27" {
		return true
	}
	_, ok := bench89.Lookup(name)
	return ok
}
