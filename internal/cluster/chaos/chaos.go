// Package chaos injects scripted faults into cluster sample streams.
// It is the test half of the coordinator's fault-tolerance story: the
// lease/reassignment machinery claims that worker death, stalls, drops
// and slow links are invisible in the merged estimate, and this package
// provides the faults that claim is verified against.
//
// Faults come in two flavors, matching the two places a distributed
// stream can break:
//
//   - Handler wrappers (KillAfterBlocks, StallAfterBlocks) wrap a
//     worker's http.Handler and misbehave on the server side — a
//     crashing process, a wedged stream. They act on the NDJSON streams
//     the stream endpoint answers with 200 and pass everything else,
//     error answers included, through.
//   - Transport wraps the coordinator's http.RoundTripper and
//     misbehaves on the network side — connections refused, added
//     latency, responses cut off mid-body — scripted per worker host.
//
// The package deliberately knows nothing about the cluster wire types
// (it counts NDJSON lines, it does not parse them), so internal cluster
// tests can import it without a cycle.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// StreamPath is the endpoint the handler wrappers fault; requests to
// any other path pass through untouched.
const StreamPath = "/v1/run"

// KillAfterBlocks aborts a stream's connection after `blocks` complete
// block lines have been written (and flushed), emulating a worker
// process that crashes mid-job. Only the first `streams` stream
// attempts are killed (0 means every attempt), so a "flaky" worker dies
// a scripted number of times and then behaves; the coordinator should
// resume the range elsewhere — or on the same worker's next attempt —
// with nothing visible in the merged result.
func KillAfterBlocks(inner http.Handler, blocks, streams int) http.Handler {
	var attempts atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != StreamPath {
			inner.ServeHTTP(w, r)
			return
		}
		if streams > 0 && attempts.Add(1) > int64(streams) {
			inner.ServeHTTP(w, r)
			return
		}
		inner.ServeHTTP(&killWriter{respWriter: respWriter{w: w}, blocks: blocks}, r)
	})
}

// StallAfterBlocks wedges a stream after `blocks` complete block lines:
// the connection stays open but no further bytes arrive until the
// client disconnects. This is the fault the lease watchdog exists for —
// a worker that is alive (heartbeats fine) but not producing — and
// unlike KillAfterBlocks it never surfaces as a transport error.
func StallAfterBlocks(inner http.Handler, blocks int) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != StreamPath {
			inner.ServeHTTP(w, r)
			return
		}
		inner.ServeHTTP(&stallWriter{respWriter: respWriter{w: w}, blocks: blocks, ctx: r.Context()}, r)
	})
}

// respWriter is the shared base of the fault writers: it forwards
// writes and flushes, and counts completed NDJSON lines (line 1 is the
// stream header, so block b ends at line b+1).
type respWriter struct {
	w      http.ResponseWriter
	lines  int
	status int
}

func (rw *respWriter) Header() http.Header { return rw.w.Header() }

func (rw *respWriter) WriteHeader(status int) {
	rw.status = status
	rw.w.WriteHeader(status)
}

func (rw *respWriter) Flush() {
	if f, ok := rw.w.(http.Flusher); ok {
		f.Flush()
	}
}

// blockEnds returns the offsets just past each newline in b that
// completes a *block* line (i.e. excluding the header line). An error
// answer (a status other than 200) is not a stream and has no block
// lines; a handler that never calls WriteHeader answers 200.
func (rw *respWriter) blockEnds(b []byte) []int {
	if rw.status != 0 && rw.status != http.StatusOK {
		return nil
	}
	var ends []int
	for i, c := range b {
		if c == '\n' {
			rw.lines++
			if rw.lines > 1 {
				ends = append(ends, i+1)
			}
		}
	}
	return ends
}

// killWriter writes through until the target block line completes, then
// flushes what the client is meant to see and aborts the connection.
type killWriter struct {
	respWriter
	blocks int // abort after this many complete block lines
	sent   int
}

func (kw *killWriter) Write(b []byte) (int, error) {
	for _, end := range kw.blockEnds(b) {
		kw.sent++
		if kw.sent >= kw.blocks {
			kw.w.Write(b[:end])
			kw.Flush()
			// http.Server recovers ErrAbortHandler and severs the
			// connection without a clean close — exactly a crash.
			panic(http.ErrAbortHandler)
		}
	}
	return kw.w.Write(b)
}

// stallWriter writes through until the target block line completes,
// then swallows everything and parks until the client goes away.
type stallWriter struct {
	respWriter
	blocks int
	sent   int
	ctx    context.Context
}

func (sw *stallWriter) Write(b []byte) (int, error) {
	if sw.sent >= sw.blocks {
		<-sw.ctx.Done()
		return 0, sw.ctx.Err()
	}
	for _, end := range sw.blockEnds(b) {
		sw.sent++
		if sw.sent >= sw.blocks {
			if _, err := sw.w.Write(b[:end]); err != nil {
				return 0, err
			}
			sw.Flush()
			<-sw.ctx.Done()
			return len(b), nil // the stalled tail is swallowed, not errored
		}
	}
	return sw.w.Write(b)
}

// Rule scripts the network faults for one worker host.
type Rule struct {
	// Drop fails every request to the host outright (connection
	// refused).
	Drop bool
	// Delay is added before each request is forwarded.
	Delay time.Duration
	// CutAfterBlocks severs each stream (a 200 answer) after that many
	// block lines have been read (0 = never). Unlike the handler-side
	// kill, the cut happens on the coordinator's side of the wire, so
	// the worker keeps writing into a dead connection for a while — the
	// "half-open stream" failure mode.
	CutAfterBlocks int
	// DropN, when positive, bounds Drop to the first DropN requests —
	// a host that is unreachable for a bounded outage, then recovers.
	DropN int
}

// errDropped is the synthetic transport error for dropped requests.
var errDropped = errors.New("chaos: request dropped")

// errCut is the synthetic read error for severed response bodies.
var errCut = errors.New("chaos: stream cut")

// Transport is a fault-injecting http.RoundTripper for the
// coordinator's client: per-host rules drop requests, add latency, or
// cut stream responses mid-body. Hosts without a rule pass through.
type Transport struct {
	// Base handles the real round trips (default
	// http.DefaultTransport).
	Base http.RoundTripper

	mu      sync.Mutex
	rules   map[string]*Rule
	dropped map[string]int
}

// Set installs (or replaces) the rule for a host ("127.0.0.1:4501").
func (t *Transport) Set(host string, r Rule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rules == nil {
		t.rules = make(map[string]*Rule)
		t.dropped = make(map[string]int)
	}
	rc := r
	t.rules[host] = &rc
	t.dropped[host] = 0
}

// rule snapshots the host's rule and charges a drop if one applies.
func (t *Transport) rule(host string) (Rule, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	r := t.rules[host]
	if r == nil {
		return Rule{}, false
	}
	rc := *r
	if rc.Drop && rc.DropN > 0 {
		if t.dropped[host] >= rc.DropN {
			rc.Drop = false
		} else {
			t.dropped[host]++
		}
	}
	return rc, true
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	r, ok := t.rule(req.URL.Host)
	if !ok {
		return base.RoundTrip(req)
	}
	if r.Drop {
		return nil, fmt.Errorf("%w: %s %s", errDropped, req.Method, req.URL)
	}
	if r.Delay > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(r.Delay):
		}
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if r.CutAfterBlocks > 0 && req.URL.Path == StreamPath && resp.StatusCode == http.StatusOK {
		resp.Body = &cutReader{rc: resp.Body, blocks: r.CutAfterBlocks}
	}
	return resp, nil
}

// cutReader passes a response body through until the target block line
// completes, then returns a synthetic read error.
type cutReader struct {
	rc     io.ReadCloser
	blocks int
	lines  int
	cut    bool
}

func (cr *cutReader) Read(p []byte) (int, error) {
	if cr.cut {
		return 0, errCut
	}
	n, err := cr.rc.Read(p)
	for i := 0; i < n; i++ {
		if p[i] == '\n' {
			cr.lines++
			if cr.lines-1 >= cr.blocks { // line 1 is the header
				cr.cut = true
				return i + 1, nil // deliver through the completed line
			}
		}
	}
	return n, err
}

func (cr *cutReader) Close() error { return cr.rc.Close() }
