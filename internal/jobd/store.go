package jobd

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"samurai/internal/montecarlo"
)

// CellRecord is the checkpoint of one completed cell: an array
// instance, or a run job's one nominal cell (index 0, no VtShift). It
// is montecarlo's outcome itself, whose JSON form is the WAL line's, so
// a record holds the whole outcome, float64 fields bit-exact; only
// cells that finished without a simulation error reach it.
type CellRecord = montecarlo.CellOutcome

// record is one WAL line. Rec selects which optional fields are set.
type record struct {
	// Rec is the record kind: "job" (submission), "state" (lifecycle
	// transition), "cell" (checkpoint) or "result" (final aggregates).
	Rec  string `json:"rec"`
	ID   string `json:"id"`
	Seq  uint64 `json:"seq,omitempty"`
	Spec *Spec  `json:"spec,omitempty"`
	// State accompanies "state" records; Error the failed transition.
	State State  `json:"state,omitempty"`
	Error string `json:"error,omitempty"`
	// Cell accompanies "cell" records.
	Cell *CellRecord `json:"cell,omitempty"`
	// Summary accompanies "result" records.
	Summary *Summary `json:"summary,omitempty"`
}

// Store is the append-only JSONL write-ahead log backing samuraid.
// Records are committed by their trailing newline plus fsync; a torn
// final line (crash mid-append) is detected and truncated on Open, so
// at most the single record being written during a crash is lost — for
// a sweep that means re-simulating one cell, never corrupting history.
type Store struct {
	mu   sync.Mutex
	path string
	f    *os.File
	// nosync disables the per-append fsync (tests only; the daemon
	// always syncs).
	nosync bool
}

// Path returns the backing file path.
func (s *Store) Path() string { return s.path }

// Open opens (or creates) the store at path, replays its records and
// returns the reconstructed jobs in submission order along with the
// highest job sequence number seen. Jobs that were running when the
// previous process died are returned in StateQueued with their
// checkpointed cells attached — ready to resume.
func Open(path string) (*Store, []*Job, uint64, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("jobd: opening store: %w", err)
	}
	jobs, maxSeq, validLen, err := replay(f)
	if err != nil {
		//lint:ignore bareerr the replay error is the one worth reporting; close is best-effort cleanup
		f.Close()
		return nil, nil, 0, err
	}
	// Drop a torn final line so the next append starts a fresh record.
	if err := f.Truncate(validLen); err != nil {
		//lint:ignore bareerr the truncate error is the one worth reporting; close is best-effort cleanup
		f.Close()
		return nil, nil, 0, fmt.Errorf("jobd: truncating torn store tail: %w", err)
	}
	if _, err := f.Seek(validLen, io.SeekStart); err != nil {
		//lint:ignore bareerr the seek error is the one worth reporting; close is best-effort cleanup
		f.Close()
		return nil, nil, 0, fmt.Errorf("jobd: seeking store tail: %w", err)
	}
	normalizeReplayed(jobs)
	return &Store{path: path, f: f}, jobs, maxSeq, nil
}

// replay scans the WAL and rebuilds the job table. It returns the byte
// length of the valid prefix; a final line without a terminating
// newline is treated as torn (even if it parses — it may be a
// truncated numeric literal) and excluded.
func replay(f *os.File) (jobs []*Job, maxSeq uint64, validLen int64, err error) {
	byID := map[string]*Job{}
	r := bufio.NewReader(f)
	var offset int64
	for lineNo := 1; ; lineNo++ {
		line, rerr := r.ReadString('\n')
		if rerr == io.EOF {
			// No trailing newline: the final append was torn.
			return jobs, maxSeq, offset, nil
		}
		if rerr != nil {
			return nil, 0, 0, fmt.Errorf("jobd: reading store: %w", rerr)
		}
		lineLen := int64(len(line))
		if strings.TrimSpace(line) == "" {
			offset += lineLen
			continue
		}
		var rec record
		if jerr := json.Unmarshal([]byte(line), &rec); jerr != nil {
			return nil, 0, 0, fmt.Errorf("jobd: store line %d corrupt: %w", lineNo, jerr)
		}
		if aerr := apply(byID, &jobs, rec); aerr != nil {
			return nil, 0, 0, fmt.Errorf("jobd: store line %d: %w", lineNo, aerr)
		}
		if rec.Seq > maxSeq {
			maxSeq = rec.Seq
		}
		offset += lineLen
	}
}

// apply folds one WAL record into the job table.
func apply(byID map[string]*Job, jobs *[]*Job, rec record) error {
	switch rec.Rec {
	case "job":
		if rec.Spec == nil || rec.ID == "" {
			return fmt.Errorf("job record missing id or spec")
		}
		if _, dup := byID[rec.ID]; dup {
			return fmt.Errorf("duplicate job id %q", rec.ID)
		}
		j := newJob(rec.ID, rec.Seq, *rec.Spec)
		byID[rec.ID] = j
		*jobs = append(*jobs, j)
	case "state":
		j, ok := byID[rec.ID]
		if !ok {
			return fmt.Errorf("state record for unknown job %q", rec.ID)
		}
		if !rec.State.valid() {
			return fmt.Errorf("unknown state %q", rec.State)
		}
		j.State = rec.State
		j.Error = rec.Error
	case "cell":
		j, ok := byID[rec.ID]
		if !ok {
			return fmt.Errorf("cell record for unknown job %q", rec.ID)
		}
		if rec.Cell == nil {
			return fmt.Errorf("cell record without a cell")
		}
		if rec.Cell.Index < 0 || rec.Cell.Index >= j.CellsTotal {
			return fmt.Errorf("cell index %d outside [0,%d)", rec.Cell.Index, j.CellsTotal)
		}
		j.cells[rec.Cell.Index] = *rec.Cell
	case "result":
		j, ok := byID[rec.ID]
		if !ok {
			return fmt.Errorf("result record for unknown job %q", rec.ID)
		}
		if rec.Summary == nil {
			return fmt.Errorf("result record without a summary")
		}
		sum := *rec.Summary
		j.Result = &sum
	default:
		return fmt.Errorf("unknown record kind %q", rec.Rec)
	}
	return nil
}

// normalizeReplayed finalises replayed jobs for scheduling: a job that
// was mid-flight (running) when the previous process died goes back to
// queued so the scheduler resumes it. Exported logic lives here so
// tests can exercise it without a Scheduler.
func normalizeReplayed(jobs []*Job) {
	for _, j := range jobs {
		if j.State == StateRunning {
			j.State = StateQueued
		}
	}
}

// append writes one record, newline-terminated, and fsyncs so the
// record survives a process or OS crash before the caller proceeds.
func (s *Store) append(rec record) error {
	buf, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobd: encoding store record: %w", err)
	}
	buf = append(buf, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("jobd: store is closed")
	}
	if _, err := s.f.Write(buf); err != nil {
		return fmt.Errorf("jobd: appending store record: %w", err)
	}
	if s.nosync {
		return nil
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("jobd: syncing store: %w", err)
	}
	return nil
}

// AppendJob persists a job submission.
func (s *Store) AppendJob(j *Job) error {
	spec := j.Spec
	return s.append(record{Rec: "job", ID: j.ID, Seq: j.Seq, Spec: &spec})
}

// AppendState persists a lifecycle transition.
func (s *Store) AppendState(id string, st State, errMsg string) error {
	return s.append(record{Rec: "state", ID: id, State: st, Error: errMsg})
}

// AppendCell checkpoints one completed cell. The VtShift floats are
// finite by construction (normal variates); reject anything non-finite
// rather than writing a record that cannot round-trip.
func (s *Store) AppendCell(id string, c CellRecord) error {
	for k, v := range c.VtShift {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("jobd: cell %d %s shift %v is not JSON-representable", c.Index, k, v)
		}
	}
	if math.IsNaN(c.LogLR) || math.IsInf(c.LogLR, 0) {
		return fmt.Errorf("jobd: cell %d log-LR %v is not JSON-representable", c.Index, c.LogLR)
	}
	if math.IsNaN(c.GlitchDepth) || math.IsInf(c.GlitchDepth, 0) {
		return fmt.Errorf("jobd: cell %d glitch depth %v is not JSON-representable", c.Index, c.GlitchDepth)
	}
	return s.append(record{Rec: "cell", ID: id, Cell: &c})
}

// AppendResult persists a finished job's aggregates. A non-finite
// float cannot be encoded, so it is refused with the field named.
func (s *Store) AppendResult(id string, sum Summary) error {
	type field struct {
		name string
		v    float64
	}
	fields := []field{{"error_rate", sum.ErrorRate}, {"mean_traps", sum.MeanTraps}}
	if r := sum.Rare; r != nil {
		fields = append(fields,
			field{"rare.tilt_ev", r.TiltEV}, field{"rare.p_fail", r.PFail}, field{"rare.ess", r.ESS},
			field{"rare.lr_var", r.LRVar}, field{"rare.ci_half", r.CIHalf}, field{"rare.cv_adjusted", r.CVAdjusted})
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("jobd: job %s summary %s %v is not JSON-representable", id, f.name, f.v)
		}
	}
	return s.append(record{Rec: "result", ID: id, Summary: &sum})
}

// Compact rewrites the WAL as its minimal replay-equivalent snapshot:
// one job record, the sorted cell checkpoints, the latest non-queued
// state and the result (if any) per job — dropping every intermediate
// lifecycle transition a long-lived daemon accumulates across
// drain/resume cycles. The snapshot is written to a temp file in the
// store's directory, fsynced, and atomically renamed over the log, so
// a crash at any point leaves either the old or the new WAL, never a
// mix. jobs must be the full replayed table in submission order (as
// returned by Open) and must not be mutated concurrently — call this
// between Open and handing the jobs to a scheduler or coordinator.
func (s *Store) Compact(jobs []*Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return fmt.Errorf("jobd: store is closed")
	}
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, filepath.Base(s.path)+".compact-*")
	if err != nil {
		return fmt.Errorf("jobd: creating compaction snapshot: %w", err)
	}
	//lint:ignore bareerr best-effort temp cleanup; a no-op once the snapshot is renamed into place
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	writeRec := func(rec record) error {
		buf, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("jobd: encoding snapshot record: %w", err)
		}
		buf = append(buf, '\n')
		_, err = w.Write(buf)
		return err
	}
	// One closure for the whole snapshot body keeps exactly one
	// abandon-the-temp-file error path below.
	writeSnapshot := func() error {
		for _, j := range jobs {
			spec := j.Spec
			if err := writeRec(record{Rec: "job", ID: j.ID, Seq: j.Seq, Spec: &spec}); err != nil {
				return err
			}
			for _, c := range j.Records() {
				c := c
				if err := writeRec(record{Rec: "cell", ID: j.ID, Cell: &c}); err != nil {
					return err
				}
			}
			// Queued is the replay default (normalizeReplayed also folds a
			// torn "running" back into it), so only other states need a line.
			if j.State != StateQueued && j.State != StateRunning {
				if err := writeRec(record{Rec: "state", ID: j.ID, State: j.State, Error: j.Error}); err != nil {
					return err
				}
			}
			if j.Result != nil {
				sum := *j.Result
				if err := writeRec(record{Rec: "result", ID: j.ID, Summary: &sum}); err != nil {
					return err
				}
			}
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("jobd: flushing compaction snapshot: %w", err)
		}
		if err := tmp.Sync(); err != nil {
			return fmt.Errorf("jobd: syncing compaction snapshot: %w", err)
		}
		return nil
	}
	if err := writeSnapshot(); err != nil {
		//lint:ignore bareerr the snapshot write error is the one worth reporting; the temp file is abandoned
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("jobd: closing compaction snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return fmt.Errorf("jobd: installing compaction snapshot: %w", err)
	}
	// The rename is durable once the directory entry is synced.
	if d, err := os.Open(dir); err == nil {
		//lint:ignore bareerr directory fsync is best-effort extra durability; the data file itself is synced
		d.Sync()
		//lint:ignore bareerr closing a read-only directory handle cannot lose data
		d.Close()
	}
	old := s.f
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("jobd: reopening compacted store: %w", err)
	}
	s.f = f
	if err := old.Close(); err != nil {
		return fmt.Errorf("jobd: closing pre-compaction store handle: %w", err)
	}
	return nil
}

// Close syncs and closes the backing file. Further appends fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	f := s.f
	s.f = nil
	if err := f.Sync(); err != nil {
		//lint:ignore bareerr the sync error is the one worth reporting; close is best-effort cleanup
		f.Close()
		return fmt.Errorf("jobd: syncing store on close: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("jobd: closing store: %w", err)
	}
	return nil
}
