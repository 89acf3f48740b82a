package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// runJob submits req and waits for it to finish.
func runJob(t *testing.T, m *Manager, req JobRequest) JobView {
	t.Helper()
	sub, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	v, err := m.Wait(ctx, sub.ID)
	if err != nil || v.State != StateDone {
		t.Fatalf("job %s: state %s err %v (%s)", sub.ID, v.State, err, v.Error)
	}
	return v
}

// repeat submits n repeats of a request whose result is cached; each
// finishes inside Submit, whose returned view already carries the
// cached result.
func repeat(t *testing.T, m *Manager, req JobRequest, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		v, err := m.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if v.State != StateDone || v.Result == nil || !v.Result.Cached {
			t.Fatalf("repeat %d: Submit returned state %s result %v, want a done cached result", i, v.State, v.Result)
		}
	}
}

// checkCacheEntries asserts that the result cache holds exactly the
// result keys of the done jobs in the finished-job window, so no result
// outlives the window.
func checkCacheEntries(t *testing.T, m *Manager) {
	t.Helper()
	m.mu.Lock()
	keys := make(map[string]bool)
	for _, id := range m.finished {
		if j := m.jobs[id]; j.state == StateDone && j.cacheKey != "" {
			keys[j.cacheKey] = true
		}
	}
	m.mu.Unlock()
	if n := m.CacheStats().Entries; n != len(keys) || n > maxFinishedJobs {
		t.Fatalf("result cache holds %d entries, the window %d result keys (at most %d)", n, len(keys), maxFinishedJobs)
	}
}

// TestFinishedWindowEvictsOldestFirst fills the window past its count
// cap with cache-hit repeats: the oldest finished job goes first, its ID
// answers ErrJobEvicted, List holds the window, the lifetime totals in
// Stats still count the evicted job, and a repeat of the evicted job's
// request, whose result no job in the window holds any more, runs again
// to the bit-identical result.
func TestFinishedWindowEvictsOldestFirst(t *testing.T) {
	m := NewManager(NewRegistry(0), nil, 1, 0, nil)
	defer m.Close()
	first := runJob(t, m, fastRequest(1))
	second := runJob(t, m, fastRequest(2))
	repeat(t, m, fastRequest(2), maxFinishedJobs-2)
	if _, err := m.Get(first.ID); err != nil {
		t.Fatalf("window of %d jobs evicted %s early: %v", maxFinishedJobs, first.ID, err)
	}
	before := m.Stats()
	repeat(t, m, fastRequest(2), 1)
	if _, err := m.Get(first.ID); !errors.Is(err, ErrJobEvicted) {
		t.Fatalf("oldest job after overflow: err %v, want ErrJobEvicted", err)
	}
	if _, err := m.Get(second.ID); err != nil {
		t.Fatalf("second-oldest job evicted too: %v", err)
	}
	if after := m.Stats(); after.Done != before.Done+1 || after.Done != maxFinishedJobs+1 {
		t.Fatalf("done total %d before the eviction, %d after, want %d then %d",
			before.Done, after.Done, maxFinishedJobs, maxFinishedJobs+1)
	}
	list := m.List()
	if len(list) != maxFinishedJobs || list[0].ID != second.ID {
		t.Fatalf("List holds %d jobs starting at %s, want %d starting at %s", len(list), list[0].ID, maxFinishedJobs, second.ID)
	}
	again := runJob(t, m, fastRequest(1))
	if again.Result.Cached {
		t.Fatal("repeat of the evicted job was served from cache after its result left the window")
	}
	sameResultView(t, again.Result, first.Result, "repeat of an evicted job")
	if _, err := m.Get("job-999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("never-issued ID: err %v, want ErrUnknownJob", err)
	}
}

// TestEvictedBreakdownRunsAgain pushes an s27 breakdown job out of the
// window with maxFinishedJobs finished jobs of another request: its
// repeat is no longer served from cache but runs again, to the
// bit-identical result and report, and at every step the result cache
// holds only the result keys of the window's done jobs, so nothing keeps
// the evicted job's result or full report alive.
func TestEvictedBreakdownRunsAgain(t *testing.T) {
	m := NewManager(NewRegistry(0), nil, 1, 0, nil)
	defer m.Close()
	req := fastRequest(9)
	req.Options.Breakdown = true
	first := runJob(t, m, req)
	if first.Result.Breakdown == nil || first.Result.Breakdown.Full == nil {
		t.Fatalf("breakdown job finished without its full report: %+v", first.Result.Breakdown)
	}
	runJob(t, m, fastRequest(10))
	checkCacheEntries(t, m)
	for i := 1; i < maxFinishedJobs; i++ {
		repeat(t, m, fastRequest(10), 1)
		checkCacheEntries(t, m)
	}
	if _, err := m.Get(first.ID); !errors.Is(err, ErrJobEvicted) {
		t.Fatalf("breakdown job after %d later finished jobs: err %v, want ErrJobEvicted", maxFinishedJobs, err)
	}
	again := runJob(t, m, req)
	if again.Result.Cached {
		t.Fatal("repeat of the evicted breakdown job was served from cache")
	}
	sameResultView(t, again.Result, first.Result, "repeat of an evicted breakdown job")
	checkCacheEntries(t, m)
}

// TestRepeatsRenewTheirResult: a request repeated at least once within
// every maxFinishedJobs finished jobs is still answered from cache after
// the job that ran it has left the window, because each served copy
// becomes the newest job holding its result. One repeat too late runs
// again.
func TestRepeatsRenewTheirResult(t *testing.T) {
	m := NewManager(NewRegistry(0), nil, 1, 0, nil)
	defer m.Close()
	first := runJob(t, m, fastRequest(1))
	runJob(t, m, fastRequest(2))
	repeat(t, m, fastRequest(2), maxFinishedJobs-2)
	for round := 0; round < 3; round++ {
		// The holder of the first request's result and maxFinishedJobs-1
		// later jobs fill the window, so this repeat is still a hit.
		v, err := m.Submit(fastRequest(1))
		if err != nil {
			t.Fatal(err)
		}
		if v.Result == nil || !v.Result.Cached {
			t.Fatalf("round %d: repeat within the window ran again (%+v)", round, v.Result)
		}
		sameResultView(t, v.Result, first.Result, "renewed repeat")
		checkCacheEntries(t, m)
		repeat(t, m, fastRequest(2), maxFinishedJobs-1)
	}
	if _, err := m.Get(first.ID); !errors.Is(err, ErrJobEvicted) {
		t.Fatalf("first job after three windows: err %v, want ErrJobEvicted", err)
	}
	repeat(t, m, fastRequest(2), 1)
	late := runJob(t, m, fastRequest(1))
	if late.Result.Cached {
		t.Fatal("repeat after a full window without one was served from cache")
	}
	sameResultView(t, late.Result, first.Result, "repeat after the window")
	checkCacheEntries(t, m)
}

// TestConcurrentRepeatsShareOneResult submits repeats of three requests
// from several goroutines while two pool workers finish jobs: every
// submission counts as exactly one hit or miss, every repeat returns
// its request's bit-identical result, whether served or run again, and
// the result cache ends holding the window's three result keys.
func TestConcurrentRepeatsShareOneResult(t *testing.T) {
	m := NewManager(NewRegistry(0), nil, 2, 0, nil)
	defer m.Close()
	const clients, each = 4, 8
	views := make([][]JobView, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			for i := 0; i < each; i++ {
				sub, err := m.Submit(fastRequest(int64(1 + (c+i)%3)))
				if err != nil {
					t.Error(err)
					return
				}
				v, err := m.Wait(ctx, sub.ID)
				if err != nil || v.State != StateDone {
					t.Errorf("job %s: state %s err %v (%s)", sub.ID, v.State, err, v.Error)
					return
				}
				views[c] = append(views[c], v)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	first := make(map[int64]*ResultView)
	for _, vs := range views {
		for _, v := range vs {
			if want, ok := first[v.Request.Seed]; ok {
				sameResultView(t, v.Result, want, fmt.Sprintf("seed %d", v.Request.Seed))
			} else {
				first[v.Request.Seed] = v.Result
			}
		}
	}
	if cs := m.CacheStats(); cs.Hits+cs.Misses != clients*each || cs.Entries != 3 {
		t.Fatalf("result cache stats %+v, want %d hits and misses and 3 entries", cs, clients*each)
	}
	checkCacheEntries(t, m)
}

// TestRunningJobSurvivesEviction holds one job running while the window
// overflows twice over: only finished jobs leave, and the running one
// still finishes and is reported.
func TestRunningJobSurvivesEviction(t *testing.T) {
	d := &startSignal{Dispatcher: NewLocalDispatcher(), started: make(chan struct{}), gate: make(chan struct{})}
	m := NewManager(NewRegistry(0), d, 2, 0, nil)
	defer m.Close()
	heldView, err := m.Submit(fastRequest(7))
	held := heldView.ID
	if err != nil {
		t.Fatal(err)
	}
	<-d.started
	done := runJob(t, m, fastRequest(1))
	repeat(t, m, fastRequest(1), 2*maxFinishedJobs)
	if _, err := m.Get(done.ID); !errors.Is(err, ErrJobEvicted) {
		t.Fatalf("finished job after overflow: err %v, want ErrJobEvicted", err)
	}
	if v, err := m.Get(held); err != nil || v.State != StateRunning {
		t.Fatalf("running job: view %+v err %v, want running", v, err)
	}
	if st := m.Stats(); st.Running != 1 || st.Done != 2*maxFinishedJobs+1 {
		t.Fatalf("stats %+v, want 1 running and %d done", st, 2*maxFinishedJobs+1)
	}
	close(d.gate)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if v, err := m.Wait(ctx, held); err != nil || v.State != StateDone {
		t.Fatalf("held job: state %s err %v", v.State, err)
	}
}

// TestEvictedJobRoutes404 checks every per-job route on an evicted ID:
// 404 with the eviction error, not the unknown-job one.
func TestEvictedJobRoutes404(t *testing.T) {
	svc, ts := newTestService(t, Config{Workers: 1})
	evicted := runJob(t, svc.Jobs, fastRequest(3)).ID
	repeat(t, svc.Jobs, fastRequest(3), maxFinishedJobs)
	for _, rt := range []struct{ method, path string }{
		{http.MethodGet, "/v1/jobs/" + evicted},
		{http.MethodGet, "/v1/jobs/" + evicted + "/wait?timeout=1s"},
		{http.MethodGet, "/v1/jobs/" + evicted + "/trace"},
		{http.MethodGet, "/v1/jobs/" + evicted + "/breakdown"},
		{http.MethodDelete, "/v1/jobs/" + evicted},
		{http.MethodGet, "/v1/jobs/job-999999"},
	} {
		req, err := http.NewRequest(rt.method, ts.URL+rt.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var body errorResponse
		err = DecodeJSON(resp.Body, &body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s %s: decoding the error body: %v", rt.method, rt.path, err)
		}
		want := ErrJobEvicted
		if strings.Contains(rt.path, "999999") {
			want = ErrUnknownJob
		}
		if resp.StatusCode != http.StatusNotFound || !strings.HasPrefix(body.Error, want.Error()) {
			t.Errorf("%s %s: status %d error %q, want 404 %q", rt.method, rt.path, resp.StatusCode, body.Error, want)
		}
	}
}

// TestRestartAppliesFinishedWindow restarts on a journal holding more
// terminal jobs than the window: the oldest replay evicted, the newest
// stay, the lifetime totals count all of them, and IDs continue past
// the evicted ones.
func TestRestartAppliesFinishedWindow(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry(0)
	store1, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewManager(reg, nil, 1, 0, store1)
	first := runJob(t, m1, fastRequest(4))
	const extra = 4
	repeat(t, m1, fastRequest(4), maxFinishedJobs+extra-1)
	m1.Close()

	store2, err := OpenJobStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewManager(reg, nil, 1, 0, store2)
	defer m2.Close()
	for i := 1; i <= extra+1; i++ {
		id := fmt.Sprintf("job-%06d", i)
		_, err := m2.Get(id)
		if evicted := i <= extra; evicted != errors.Is(err, ErrJobEvicted) || !evicted && err != nil {
			t.Fatalf("replayed %s: err %v, want evicted %v", id, err, evicted)
		}
	}
	if n := len(m2.List()); n != maxFinishedJobs {
		t.Fatalf("restored window holds %d jobs, want %d", n, maxFinishedJobs)
	}
	if st := m2.Stats(); st.Done != maxFinishedJobs+extra {
		t.Fatalf("restored done total %d, want %d", st.Done, maxFinishedJobs+extra)
	}
	again := runJob(t, m2, fastRequest(4))
	if want := fmt.Sprintf("job-%06d", maxFinishedJobs+extra+1); again.ID != want {
		t.Fatalf("first job after restart is %s, want %s", again.ID, want)
	}
	sameResultView(t, again.Result, first.Result, "repeat after restart")
}
