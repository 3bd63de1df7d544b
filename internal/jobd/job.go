// Package jobd is samuraid's durable job layer: a JSON job model, an
// append-only JSONL write-ahead store, and the one job table — the
// Scheduler — that shards every job into cell-range leases with
// cell-granular checkpoints. A Monte-Carlo array sweep
// (montecarlo.RunArrayCtx) has one cell per array instance; a
// methodology run (samurai.Run) is a job of one cell, the nominal cell
// at the job's seed.
//
// # One execution path
//
// Every cell of every job reaches the WAL through the same lease
// protocol: Lease hands out a contiguous cell range, Checkpoint appends
// finished cells (bit-verifying duplicates), and the summary is
// recomputed from the durable records once the last cell lands. The
// Scheduler's own in-process executors call Lease and Checkpoint
// directly; remote workers (internal/fabric, cmd/samuraiw) run the
// identical Executor loop over HTTP. A single-node result and a
// distributed one are therefore bit-identical by construction, and
// every job retries, cancels, drains and resumes the same way.
//
// # Determinism under resume
//
// Every array cell's random stream is derived deterministically from
// the job seed (rng.Stream.Split by cell index), so a cell's outcome
// does not depend on which lease, executor or process ran it. A sweep
// that is interrupted — crash, SIGTERM drain, restart — resumes by
// leasing out only the cells without a durable record, and its summary
// is montecarlo.Aggregate over the records in index order: bit-identical
// to an uninterrupted montecarlo.RunArrayCtx with the same spec. The
// store only has to persist *which* cells finished and their outcomes;
// no generator state is checkpointed. resume_test.go pins this end to
// end, and montecarlo's drain-and-rerun goldens
// (TestRunArrayCtxDrainThenResumeBitIdentical,
// TestRareSweepDrainResumeBitIdentical) pin it for montecarlo.RunRange.
package jobd

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"samurai/internal/device"
	"samurai/internal/montecarlo"
	"samurai/internal/obs/trace"
	"samurai/internal/rareevent"
	"samurai/internal/sram"
)

// Job types accepted in Spec.Type.
const (
	TypeRun       = "run"        // one full two-pass methodology run: a job of one cell
	TypeArray     = "array"      // Monte-Carlo array sweep
	TypeRareArray = "rare_array" // importance-sampled rare-event array sweep
)

// State is a job lifecycle state.
type State string

// Job lifecycle: queued → running → {done, failed, canceled}; a drained
// running job moves back to queued and resumes after restart.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state ends the job's lifecycle.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// valid reports whether s is one of the known states (used by WAL
// replay to reject corrupt records early).
func (s State) valid() bool {
	switch s {
	case StateQueued, StateRunning, StateDone, StateFailed, StateCanceled:
		return true
	}
	return false
}

// RetrySpec configures per-cell retry for transiently failing cells.
// Retrying is free of determinism hazards: a cell's outcome is a pure
// function of its seed, so a retry either reproduces the failure or
// yields the one true result.
type RetrySpec struct {
	// Max is the number of retries after the first attempt.
	Max int `json:"max,omitempty"`
	// BackoffMS is the initial backoff in milliseconds (default 100).
	BackoffMS int `json:"backoff_ms,omitempty"`
	// MaxBackoffMS caps the exponential backoff (default 2000).
	MaxBackoffMS int `json:"max_backoff_ms,omitempty"`
}

// withDefaults fills unset backoff parameters.
func (r RetrySpec) withDefaults() RetrySpec {
	if r.BackoffMS <= 0 {
		r.BackoffMS = 100
	}
	if r.MaxBackoffMS <= 0 {
		r.MaxBackoffMS = 2000
	}
	return r
}

// Spec size limits. Validate refuses a spec above any of them and
// names the field, so one small POST cannot make the scheduler allocate
// or start goroutines without bound. Each is far above what any caller
// in this repository submits.
const (
	// MaxCells bounds an array job's cells: its lease pool holds a byte
	// per cell, and its records a few hundred.
	MaxCells = 1 << 20
	// MaxWorkers bounds a job's cell parallelism: the goroutines one
	// lease runs, and the factor on an in-process lease's width.
	MaxWorkers = 1024
	// MaxPatternBits bounds the write pattern: each bit is one simulated
	// write cycle of every cell.
	MaxPatternBits = 256
	// MaxCellRetries bounds the retries of one cell, and
	// MaxRetryBackoffMS each backoff between them.
	MaxCellRetries    = 32
	MaxRetryBackoffMS = 60_000
)

// Spec is the submitted job description (the POST /jobs payload).
type Spec struct {
	// Type selects the workload: "run", "array" or "rare_array".
	Type string `json:"type"`
	// Tech names the technology node (default "90nm", matching
	// samurai.Config).
	Tech string `json:"tech,omitempty"`
	// VddFrac scales the node's nominal supply (default 1.0).
	VddFrac float64 `json:"vdd_frac,omitempty"`
	// Pattern is the bit string written each sweep, e.g. "110101001";
	// empty selects the paper's Fig 8 pattern.
	Pattern string `json:"pattern,omitempty"`
	// Seed drives all sampling; the whole job is a pure function of it.
	Seed uint64 `json:"seed"`
	// Scale multiplies RTN amplitudes (default 1).
	Scale float64 `json:"scale,omitempty"`
	// Cells is the array size (array jobs only).
	Cells int `json:"cells,omitempty"`
	// WithRTN disables the RTN pass when explicitly false (array jobs;
	// default true). A run job always runs the RTN pass.
	WithRTN *bool `json:"with_rtn,omitempty"`
	// Workers bounds the per-job cell parallelism; 0 → GOMAXPROCS.
	Workers int `json:"workers,omitempty"`
	// Retry is the per-cell retry policy (a run job's one cell too).
	Retry RetrySpec `json:"retry,omitempty"`
	// TiltEV is the importance-sampling energy tilt in eV (rare_array
	// jobs only). 0 runs the untilted kernel — bit-identical to a plain
	// array sweep of the same seed, with every path weight exactly 1.
	TiltEV float64 `json:"tilt_ev,omitempty"`
}

// withDefaults normalises optional fields.
func (s Spec) withDefaults() Spec {
	if s.Tech == "" {
		s.Tech = "90nm"
	}
	if s.VddFrac == 0 {
		s.VddFrac = 1
	}
	if s.Scale == 0 {
		s.Scale = 1
	}
	s.Retry = s.Retry.withDefaults()
	return s
}

// Validate checks a (defaulted) spec for consistency.
func (s Spec) Validate() error {
	switch s.Type {
	case TypeRun:
		if s.Cells != 0 {
			return fmt.Errorf("jobd: %q jobs take no cell count", TypeRun)
		}
	case TypeArray, TypeRareArray:
		if s.Cells <= 0 {
			return fmt.Errorf("jobd: %q jobs need a positive cell count, got %d", s.Type, s.Cells)
		}
		if s.Cells > MaxCells {
			return fmt.Errorf("jobd: cells %d above the limit %d", s.Cells, MaxCells)
		}
	default:
		return fmt.Errorf("jobd: unknown job type %q (want %q, %q or %q)", s.Type, TypeRun, TypeArray, TypeRareArray)
	}
	if s.TiltEV != 0 && s.Type != TypeRareArray {
		return fmt.Errorf("jobd: tilt_ev is only meaningful on %q jobs", TypeRareArray)
	}
	if s.Type == TypeRareArray {
		if s.Cells < 2 {
			// One cell has no sample variance: the CI half-width would be
			// +Inf, which neither the WAL nor the API can carry.
			return fmt.Errorf("jobd: %q jobs need at least 2 cells, got %d", TypeRareArray, s.Cells)
		}
		if s.WithRTN != nil && !*s.WithRTN {
			return fmt.Errorf("jobd: %q jobs always run the RTN pass; with_rtn=false is contradictory", TypeRareArray)
		}
		if math.IsNaN(s.TiltEV) || s.TiltEV < -2 || s.TiltEV > 2 {
			return fmt.Errorf("jobd: tilt_ev %g out of [-2, 2] eV", s.TiltEV)
		}
	}
	if _, ok := device.NodeOK(s.Tech); !ok {
		return fmt.Errorf("jobd: unknown technology node %q", s.Tech)
	}
	// NaN fails every comparison, so each range check tests for it
	// explicitly. A non-finite value would otherwise pass, and then fail
	// in the WAL encoder: JSON cannot carry it.
	if math.IsNaN(s.VddFrac) || s.VddFrac <= 0 || s.VddFrac > 2 {
		return fmt.Errorf("jobd: vdd_frac %g out of (0, 2]", s.VddFrac)
	}
	if math.IsNaN(s.Scale) || math.IsInf(s.Scale, 0) || s.Scale < 0 {
		return fmt.Errorf("jobd: RTN scale %g is not a finite non-negative number", s.Scale)
	}
	if s.Workers > MaxWorkers {
		return fmt.Errorf("jobd: workers %d above the limit %d", s.Workers, MaxWorkers)
	}
	if len(s.Pattern) > MaxPatternBits {
		return fmt.Errorf("jobd: pattern of %d bits above the limit %d", len(s.Pattern), MaxPatternBits)
	}
	for _, c := range s.Pattern {
		if c != '0' && c != '1' {
			return fmt.Errorf("jobd: pattern must be a string of 0s and 1s, got %q", s.Pattern)
		}
	}
	switch r := s.Retry; {
	case r.Max < 0:
		return fmt.Errorf("jobd: negative retry count %d", r.Max)
	case r.Max > MaxCellRetries:
		return fmt.Errorf("jobd: retry.max %d above the limit %d", r.Max, MaxCellRetries)
	case r.BackoffMS > MaxRetryBackoffMS:
		return fmt.Errorf("jobd: retry.backoff_ms %d above the limit %d", r.BackoffMS, MaxRetryBackoffMS)
	case r.MaxBackoffMS > MaxRetryBackoffMS:
		return fmt.Errorf("jobd: retry.max_backoff_ms %d above the limit %d", r.MaxBackoffMS, MaxRetryBackoffMS)
	}
	return nil
}

// pattern builds the write pattern for the spec's technology.
func (s Spec) pattern(vdd float64) sram.Pattern {
	if s.Pattern == "" {
		return sram.Fig8Pattern(vdd)
	}
	bits := make([]int, 0, len(s.Pattern))
	for _, c := range s.Pattern {
		bit := 0
		if c == '1' {
			bit = 1
		}
		bits = append(bits, bit)
	}
	return sram.Pattern{Bits: bits, Timing: sram.DefaultTiming(), Vdd: vdd}
}

// ArrayConfig translates a spec into the montecarlo config its leases
// execute. A run job's one cell is the config's nominal Cell at its Seed
// and Scale, with no variation drawn and WithRTN ignored. The
// translation is deterministic: the same spec always yields the same
// config, which is what makes stored jobs resumable.
func (s Spec) ArrayConfig() (montecarlo.ArrayConfig, error) {
	s = s.withDefaults()
	if err := s.Validate(); err != nil {
		return montecarlo.ArrayConfig{}, err
	}
	tech := device.Node(s.Tech)
	vdd := s.VddFrac * tech.Vdd
	withRTN := true
	if s.WithRTN != nil {
		withRTN = *s.WithRTN
	}
	return montecarlo.ArrayConfig{
		Tech:    tech,
		Cell:    sram.CellConfig{Tech: tech, Vdd: vdd},
		Pattern: s.pattern(vdd),
		Cells:   s.Cells,
		Scale:   s.Scale,
		Seed:    s.Seed,
		WithRTN: withRTN,
		Workers: s.Workers,
	}, nil
}

// TraceID derives the job's deterministic trace ID: the FNV hash of
// the seed and the canonical (defaulted) spec bytes. The same spec
// always produces the same trace ID, so a resumed or re-run job is
// diffable against its previous trace — including a fabric worker's
// run of the same job on another machine. The trace ID doubles as the
// spec hash in the provenance manifest.
func (s Spec) TraceID() uint64 {
	b, err := json.Marshal(s)
	if err != nil {
		b = nil // unreachable: Spec is plain data
	}
	return trace.ID(s.Seed, b)
}

// Summary is the aggregate outcome persisted for a finished job. Run
// jobs fill the write-cycle counters; array jobs fill the array rates.
type Summary struct {
	// Run jobs.
	WriteErrors int `json:"write_errors,omitempty"`
	Slowdowns   int `json:"slowdowns,omitempty"`
	Traps       int `json:"traps,omitempty"`
	// Array jobs.
	NumFailed int     `json:"num_failed,omitempty"`
	ErrorRate float64 `json:"error_rate,omitempty"`
	MeanTraps float64 `json:"mean_traps,omitempty"`
	// Rare-event array jobs additionally carry the weighted aggregate
	// (ESS, likelihood-ratio variance, CI width).
	Rare *rareevent.ArrayStats `json:"rare,omitempty"`
}

// Job is the scheduler's mutable record of one submitted job. All
// fields are guarded by the owning Scheduler's mutex; HTTP handlers
// and tests read immutable View snapshots.
type Job struct {
	ID    string
	Seq   uint64
	Spec  Spec
	State State
	Error string
	// CellsTotal is Spec.Cells for array jobs, 1 for run jobs.
	CellsTotal int
	// Resumes counts how many times the job was picked back up with
	// checkpointed cells already in the store.
	Resumes int
	Result  *Summary
	// cells holds the checkpointed per-cell outcomes, keyed by cell
	// index. After a clean finish it covers every cell.
	cells map[int]CellRecord
	// tracer collects the causal trace and flight-recorder notes of the
	// job's current (or most recent) run. Rebuilt each time the job is
	// picked up; observability state, never persisted to the WAL.
	tracer *trace.Tracer
	// runStart and runBase (the clock and the checkpoint count at
	// pickup) feed the per-job throughput gauge.
	runStart time.Time
	runBase  int

	// The lease pool of a live job (see lease.go). It is soft state:
	// rebuilt from the checkpoints on replay, never persisted.
	//
	// pending marks cells neither checkpointed nor leased; leased maps a
	// leased cell to its lease id (ids start at 1, so the zero value of
	// a missing key never matches).
	pending []bool
	nPend   int
	leased  map[int]uint64
	steals  int
}

// newJob builds a queued job without checkpoints. Every job has at
// least one cell: a validated run spec carries no cell count, and its
// one cell is the nominal cell.
func newJob(id string, seq uint64, spec Spec) *Job {
	return &Job{
		ID: id, Seq: seq, Spec: spec, State: StateQueued,
		CellsTotal: max(spec.Cells, 1),
		cells:      map[int]CellRecord{},
	}
}

// Done returns the number of checkpointed cells.
func (j *Job) Done() int { return len(j.cells) }

// Records returns the checkpointed cells sorted by index.
func (j *Job) Records() []CellRecord {
	out := make([]CellRecord, 0, len(j.cells))
	for _, rec := range j.cells {
		out = append(out, rec)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// View is an immutable snapshot of a job, JSON-shaped for the API.
type View struct {
	ID         string   `json:"id"`
	State      State    `json:"state"`
	Spec       Spec     `json:"spec"`
	Error      string   `json:"error,omitempty"`
	CellsDone  int      `json:"cells_done"`
	CellsTotal int      `json:"cells_total,omitempty"`
	Resumes    int      `json:"resumes,omitempty"`
	Result     *Summary `json:"result,omitempty"`
}

// view snapshots the job; callers must hold the scheduler mutex.
func (j *Job) view() View {
	v := View{
		ID:         j.ID,
		State:      j.State,
		Spec:       j.Spec,
		Error:      j.Error,
		CellsDone:  j.Done(),
		CellsTotal: j.CellsTotal,
		Resumes:    j.Resumes,
	}
	if j.Result != nil {
		r := *j.Result
		v.Result = &r
	}
	return v
}
