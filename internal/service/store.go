package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the durability layer of the job manager: an append-only
// JSONL journal of job lifecycle records under a state directory. Every
// accepted job appends a submit record, the frozen pre-sampling outcome
// (interval + resolved VR plan) appends a checkpoint record, merged
// progress appends throttled progress records, and terminal states
// append a state record. A restarted server replays the journal, makes
// finished jobs queryable again (and re-primes the result cache), and
// re-enqueues every job that never reached a terminal state — resuming
// from the checkpoint, which skips interval selection and plan
// calibration. Determinism closes the loop: the re-streamed sampling
// phase reproduces the interrupted run's samples bit for bit, so a
// resumed job's final Result is identical to what the uninterrupted run
// would have produced.

// Checkpoint is the journaled core.ResumePoint: everything the sampling
// phase needs to restart without repeating the pre-sampling phases. It
// is written to the journal as soon as the plan is frozen and shipped
// back into the dispatcher on resume. JSON renders float64 in shortest
// round-trip form and the toggle counts stay below 2^53, so persistence
// is lossless; selection trials are not persisted (they document the
// selection procedure, not the sampling phase, and never surface in a
// ResultView).
type Checkpoint = core.ResumePoint

// storeRecord is one journal line. Kind selects which optional fields
// are meaningful.
type storeRecord struct {
	// Kind is "submit", "checkpoint", "progress" or "state".
	Kind string `json:"kind"`
	ID   string `json:"id"`
	// Req accompanies "submit".
	Req *JobRequest `json:"req,omitempty"`
	// Checkpoint accompanies "checkpoint"; Source is the provenance of
	// the circuit it was prepared on, so a restarted server resumes on
	// that circuit even if the name is gone or names other text; Spans
	// carries the job's lifecycle trace up to the checkpoint, so a
	// restarted server can splice the pre-restart spans ahead of the
	// resumed run's.
	Checkpoint *Checkpoint    `json:"checkpoint,omitempty"`
	Source     *CircuitSource `json:"source,omitempty"`
	Spans      []obs.Span     `json:"spans,omitempty"`
	// Progress accompanies "progress" (throttled merged-round snapshots).
	Progress *ProgressView `json:"progress,omitempty"`
	// State, Result and Error accompany "state" (terminal states only).
	State  JobState    `json:"state,omitempty"`
	Result *ResultView `json:"result,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// RestoredJob is one job folded out of a journal replay.
type RestoredJob struct {
	ID  string
	Req JobRequest
	// Checkpoint is the frozen pre-sampling outcome, if the job got that
	// far before the interruption.
	Checkpoint *Checkpoint
	// Source is the provenance of the circuit the checkpoint was
	// prepared on (nil without a checkpoint, and in journals written
	// before checkpoints recorded it).
	Source *CircuitSource
	// Spans is the lifecycle trace journaled with the checkpoint.
	Spans []obs.Span
	// Progress is the last journaled merged-round snapshot; surfaced as
	// the restored job's progress until the resumed run overtakes it.
	Progress *ProgressView
	// State is a terminal state, or StateQueued for jobs that must be
	// re-run.
	State  JobState
	Result *ResultView
	Error  string
}

// StoreStats is a snapshot of the journal.
type StoreStats struct {
	// Path is the journal file.
	Path string `json:"path"`
	// Records counts journal lines appended this process lifetime:
	// written, and synced where the record needs it.
	Records uint64 `json:"records"`
	// Failures counts appends that failed this process lifetime, whose
	// records a restart may not replay; LastError is the latest one's
	// error.
	Failures  uint64 `json:"failures,omitempty"`
	LastError string `json:"lastError,omitempty"`
	// Restored counts jobs folded out of the journal at open (terminal
	// and resumable alike); Resumed counts the non-terminal subset that
	// was re-enqueued.
	Restored int `json:"restored"`
	Resumed  int `json:"resumed"`
}

// JobStore is the append-only JSONL job journal. Open it once per state
// directory and hand it to the service Config; the job manager owns it
// from there (appends records, closes it on drain). All methods are
// safe for concurrent use.
type JobStore struct {
	mu       sync.Mutex
	f        *os.File
	w        *bufio.Writer
	path     string
	records  uint64
	failures uint64
	lastErr  string
	restored []RestoredJob
	resumed  int
}

// OpenJobStore opens (creating if needed) the job journal under dir,
// replaying any existing records first. A line torn by a crash
// mid-append is skipped, and a torn final line is ended before anything
// is appended, so the records that follow it replay normally.
func OpenJobStore(dir string) (*JobStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("service: state dir: %w", err)
	}
	path := filepath.Join(dir, "jobs.jsonl")
	restored, torn, err := replayJournal(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("service: job journal: %w", err)
	}
	if torn {
		// Without its newline the torn line would swallow the next
		// record into one malformed line.
		if _, err := f.WriteString("\n"); err != nil {
			f.Close()
			return nil, fmt.Errorf("service: job journal: %w", err)
		}
	}
	resumed := 0
	for _, r := range restored {
		if !r.State.Terminal() {
			resumed++
		}
	}
	return &JobStore{
		f:        f,
		w:        bufio.NewWriter(f),
		path:     path,
		restored: restored,
		resumed:  resumed,
	}, nil
}

// replayJournal folds the journal into per-job restored records,
// preserving submission order, and reports whether its final line is
// torn (not ended by a newline).
func replayJournal(path string) (restored []RestoredJob, torn bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("service: job journal: %w", err)
	}
	defer f.Close()

	jobs := make(map[string]*RestoredJob)
	var order []string
	// Lines are read whole, however long: a checkpoint line carries the
	// text of an uploaded netlist, which JSON escaping can make several
	// times longer than the upload's request body.
	rd := bufio.NewReader(f)
	for !torn {
		line, err := rd.ReadBytes('\n')
		if err != nil && err != io.EOF {
			return nil, false, fmt.Errorf("service: job journal: %w", err)
		}
		if err == io.EOF {
			if len(line) == 0 {
				break
			}
			torn = true
		}
		var rec storeRecord
		if json.Unmarshal(line, &rec) != nil {
			// A crash tore this append; the records around it are whole,
			// so skip just this line.
			continue
		}
		switch rec.Kind {
		case "submit":
			if rec.Req != nil && jobs[rec.ID] == nil {
				jobs[rec.ID] = &RestoredJob{ID: rec.ID, Req: *rec.Req, State: StateQueued}
				order = append(order, rec.ID)
			}
		case "checkpoint":
			if j := jobs[rec.ID]; j != nil && rec.Checkpoint != nil {
				j.Checkpoint = rec.Checkpoint
				j.Source = rec.Source
				j.Spans = rec.Spans
			}
		case "progress":
			if j := jobs[rec.ID]; j != nil && rec.Progress != nil {
				j.Progress = rec.Progress
			}
		case "state":
			if j := jobs[rec.ID]; j != nil && rec.State.Terminal() {
				j.State, j.Result, j.Error = rec.State, rec.Result, rec.Error
			}
		}
	}
	restored = make([]RestoredJob, 0, len(order))
	for _, id := range order {
		restored = append(restored, *jobs[id])
	}
	return restored, torn, nil
}

// Restored returns the jobs folded out of the journal at open, in
// submission order.
func (s *JobStore) Restored() []RestoredJob { return s.restored }

// append writes one record and counts it once it is written. Every
// record but a progress snapshot changes what a replay reconstructs
// (submits, checkpoints and terminal states), so it is also flushed and
// synced to stable storage before it counts; throttled progress
// snapshots ride along on the next sync. A failed append is counted in
// Failures, keeps its error as LastError, and is returned.
func (s *JobStore) append(rec storeRecord) error {
	line, err := json.Marshal(rec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if err == nil {
		err = s.write(line, rec.Kind != "progress")
	}
	if err != nil {
		err = fmt.Errorf("service: job journal: %s record: %w", rec.Kind, err)
		s.failures++
		s.lastErr = err.Error()
		return err
	}
	s.records++
	return nil
}

// write appends one line, flushing and syncing it if sync is set.
// Caller holds s.mu.
func (s *JobStore) write(line []byte, sync bool) error {
	if s.f == nil {
		return os.ErrClosed
	}
	s.w.Write(line)
	if err := s.w.WriteByte('\n'); err != nil || !sync {
		return err // a bufio.Writer keeps its first error, so this is Write's too
	}
	if err := s.w.Flush(); err != nil {
		return err
	}
	return s.f.Sync()
}

// Stats snapshots the journal counters.
func (s *JobStore) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Path:      s.path,
		Records:   s.records,
		Failures:  s.failures,
		LastError: s.lastErr,
		Restored:  len(s.restored),
		Resumed:   s.resumed,
	}
}

// Close flushes and closes the journal. Further appends fail.
func (s *JobStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.w.Flush()
	if serr := s.f.Sync(); err == nil {
		err = serr
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
