package jobd

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"samurai/internal/obs"
	"samurai/internal/obs/trace"
)

// Service instrumentation, resolved against the process registry so
// samuraid's /metrics surface carries the job layer next to the solver
// and montecarlo series.
var (
	mQueueDepth = obs.GetGauge("samurai_jobd_queue_depth",
		"jobs waiting to start")
	mResumes = obs.GetCounter("samurai_jobd_resumes_total",
		"sweeps picked back up with checkpointed cells in the store")
	mCellsCheckpointed = obs.GetCounter("samurai_jobd_cells_checkpointed_total",
		"cells durably recorded in the job store")
	mStoreErrors = obs.GetCounter("samurai_jobd_store_errors_total",
		"failed write-ahead store appends")
)

// stateGauge resolves the per-state job count gauge.
func stateGauge(st State) *obs.Gauge {
	return obs.GetGauge("samurai_jobd_jobs",
		"jobs by lifecycle state", obs.L("state", string(st)))
}

// jobScope returns the per-job label scope: every series a job's run
// resolves through it carries job="…", so one /metrics exposition
// distinguishes tenants.
func jobScope(id string) *obs.Scope {
	return obs.Default().Child(obs.L("job", id))
}

var (
	// ErrDraining is returned by Submit once Drain has begun.
	ErrDraining = errors.New("jobd: scheduler is draining; not accepting jobs")
	// ErrNoJob wraps every lookup of an unknown job id.
	ErrNoJob = errors.New("jobd: no job")
)

// Options tunes a Scheduler. The zero value is usable.
type Options struct {
	// MaxJobs is the number of in-process executors Start launches
	// (default 1): each one leases cells of any job and simulates them
	// with the job's own cell parallelism. Negative launches none: every
	// cell is then leased to remote workers.
	MaxJobs int
	// QueueCap bounds the jobs waiting to start (default 256); Submit
	// fails once that many are queued.
	QueueCap int
	// Workers is the default per-job cell parallelism of in-process
	// executors when a spec leaves Workers at 0 (0 → GOMAXPROCS,
	// montecarlo's default).
	Workers int
	// Retry is the default per-cell retry policy of in-process executors
	// for specs that do not set one.
	Retry RetrySpec
	// FlightSize is the per-job flight-recorder ring capacity (last N
	// span/event notes kept for failure dumps; default
	// DefaultFlightSize). Negative disables the recorder, which is the
	// default without in-process executors: such a scheduler runs no
	// spans, so a ring per job would hold only lease events.
	FlightSize int
	// LeaseCells caps the cells handed out per remote lease (default
	// 32); an in-process executor's lease holds LeaseCells per cell
	// worker. Smaller leases steal faster after an executor death; larger
	// ones amortise the per-lease round trips and tail waits.
	LeaseCells int
	// LeaseTTL is the renewal deadline (default 10s). A lease not
	// renewed within it is stolen: its cells return to the pool.
	LeaseTTL time.Duration
	// Now supplies the clock (default time.Now). Tests inject a fake to
	// drive lease expiry without sleeping. The clock feeds lease
	// deadlines, liveness and throughput gauges only — never anything
	// durable.
	Now func() time.Time
}

// DefaultFlightSize keeps the last 4096 notes per job — enough to cover
// the tail of a large sweep at ~48 bytes a slot.
const DefaultFlightSize = 4096

func (o Options) withDefaults() Options {
	if o.MaxJobs == 0 {
		o.MaxJobs = 1
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 256
	}
	if o.FlightSize == 0 {
		o.FlightSize = DefaultFlightSize
		if o.MaxJobs < 0 {
			o.FlightSize = -1
		}
	}
	if o.LeaseCells <= 0 {
		o.LeaseCells = 32
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 10 * time.Second
	}
	if o.Now == nil {
		o.Now = time.Now
	}
	o.Retry = o.Retry.withDefaults()
	return o
}

// Scheduler owns the job table and its lease pool. Every mutation is
// persisted to the Store before it is observable through the API, so a
// crash at any point replays into a consistent table. Lease state is
// in-memory only: after a restart the pool is rebuilt from the WAL's
// checkpoints and whatever is missing is leased again.
type Scheduler struct {
	store *Store
	opts  Options
	hub   *hub

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string
	seq     uint64
	nQueued int
	started bool
	// draining flips once; guarded by mu, signalled by drainCh.
	draining bool
	// wake is closed (and replaced) whenever work may have appeared for
	// a held acquire.
	wake chan struct{}

	leaseSeq  uint64
	workerSeq uint64
	leases    map[uint64]*lease
	workers   map[string]*workerInfo
	steals    int64

	// drainCh closes when Drain begins, stopping the in-process
	// executors; drained closes when it ends, answering every held
	// acquire.
	drainCh chan struct{}
	drained chan struct{}
	wg      sync.WaitGroup
}

// New builds a scheduler over a freshly opened store. replayed and
// maxSeq come from Open; replayed jobs keep their stored state, and
// the lease pools of queued jobs (including drained or crashed sweeps)
// are rebuilt from their checkpoints. A replayed job whose every cell
// is durable but whose result never reached the WAL (a crash between
// its last checkpoint and its result record) is finished here, with
// the summary its records give.
func New(store *Store, replayed []*Job, maxSeq uint64, opts Options) *Scheduler {
	s := &Scheduler{
		store:   store,
		opts:    opts.withDefaults(),
		hub:     newHub(),
		jobs:    map[string]*Job{},
		seq:     maxSeq,
		wake:    make(chan struct{}),
		leases:  map[uint64]*lease{},
		workers: map[string]*workerInfo{},
		drainCh: make(chan struct{}),
		drained: make(chan struct{}),
	}
	for _, j := range replayed {
		s.jobs[j.ID] = j
		s.order = append(s.order, j.ID)
		stateGauge(j.State).Add(1)
		if j.State == StateQueued {
			s.nQueued++
			mQueueDepth.Add(1)
		}
		j.resetPool()
		if j.State.Terminal() {
			s.hub.finish(j.ID)
		} else if j.Done() == j.CellsTotal {
			s.finalizeLocked(j)
		}
	}
	return s
}

// Start launches the in-process executors. Replayed sweeps with
// checkpointed cells count as resumed.
func (s *Scheduler) Start() {
	s.mu.Lock()
	if s.started {
		s.mu.Unlock()
		return
	}
	s.started = true
	for _, id := range s.order {
		if j := s.jobs[id]; j.State == StateQueued && j.Done() > 0 {
			j.Resumes++
			mResumes.Inc()
		}
	}
	s.mu.Unlock()
	for n := 1; n <= s.opts.MaxJobs; n++ {
		opts := ExecutorOptions{ID: fmt.Sprintf("%s%d", localPrefix, n)}.withDefaults()
		e := &Executor{client: local{s}, opts: opts, s: s, id: opts.ID, drain: s.drainCh}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			// A failed lease has already failed its job; the executor
			// reports it and moves on to the next one.
			for {
				err := e.Run(context.Background())
				if err == nil {
					return
				}
				obs.Emit("jobd.executor", obs.F("worker", e.ID()), obs.F("error", err.Error()))
			}
		}()
	}
}

// notifyLocked wakes every held acquire.
func (s *Scheduler) notifyLocked() {
	close(s.wake)
	s.wake = make(chan struct{})
}

// Submit validates, persists and queues a new job, returning its view.
func (s *Scheduler) Submit(spec Spec) (View, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return View{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return View{}, ErrDraining
	}
	if s.nQueued >= s.opts.QueueCap {
		return View{}, fmt.Errorf("jobd: queue full (%d jobs)", s.nQueued)
	}
	s.seq++
	j := newJob(fmt.Sprintf("job-%06d", s.seq), s.seq, spec)
	if err := s.store.AppendJob(j); err != nil {
		mStoreErrors.Inc()
		return View{}, err
	}
	j.resetPool()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.nQueued++
	mQueueDepth.Add(1)
	stateGauge(StateQueued).Add(1)
	s.emit(j.ID, "jobd.state",
		obs.F("job", j.ID), obs.F("state", string(StateQueued)))
	s.notifyLocked()
	return j.view(), nil
}

// Get returns a snapshot of a job.
func (s *Scheduler) Get(id string) (View, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return View{}, false
	}
	return j.view(), true
}

// List returns snapshots of all jobs in submission order.
func (s *Scheduler) List() []View {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]View, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Trace returns the tracer of a job's current or most recent run
// (false until the job has started running at least once).
func (s *Scheduler) Trace(id string) (*trace.Tracer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok || j.tracer == nil {
		return nil, false
	}
	return j.tracer, true
}

// CellRecords returns the checkpointed cells of a job, sorted by index.
func (s *Scheduler) CellRecords(id string) ([]CellRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.Records(), true
}

// Events subscribes to a job's progress stream.
func (s *Scheduler) Events(id string) (<-chan obs.Event, func(), bool) {
	s.mu.Lock()
	_, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	ch, cancel := s.hub.subscribe(id)
	return ch, cancel, true
}

// Cancel aborts a job. It transitions at once and its leases are void,
// so every executor holding one stops at its next renewal or
// checkpoint, and no cell lands after the transition. An unknown job
// returns an error wrapping ErrNoJob; a terminal one, any other error.
func (s *Scheduler) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	switch {
	case !ok:
		return fmt.Errorf("%w %q", ErrNoJob, id)
	case j.State.Terminal():
		return fmt.Errorf("jobd: job %q already %s", id, j.State)
	}
	msg := "canceled"
	if j.State == StateQueued {
		msg = "canceled while queued"
	}
	s.transitionLocked(j, StateCanceled, msg)
	return nil
}

// Draining reports whether Drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Drain stops the scheduler gracefully: no new jobs are accepted and no
// new leases granted; in-process executors finish and checkpoint their
// in-flight cells and release the rest; interrupted sweeps transition
// back to queued (resumable after restart); held acquires are answered
// Done; and all event streams are closed. Checkpoints from remote
// workers keep landing, so they flush cleanly. It blocks until the
// in-process executors are idle.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.draining = true
	close(s.drainCh)
	s.mu.Unlock()
	s.wg.Wait()
	s.mu.Lock()
	for _, id := range s.order {
		if j := s.jobs[id]; j.State == StateRunning {
			s.dumpFlight(j.ID, j.tracer, "drain")
			s.transitionLocked(j, StateQueued, "")
		}
	}
	s.mu.Unlock()
	close(s.drained)
	s.hub.closeAll()
}

// emit publishes a progress event to the job's stream subscribers and
// to the process-wide obs sink.
func (s *Scheduler) emit(id, name string, fields ...obs.Field) {
	s.hub.publish(id, obs.Event{Name: name, Fields: fields})
	obs.Emit(name, fields...)
}

// transitionLocked moves a job to a new state, persisting first and
// then publishing; the caller holds mu, so the WAL orders the state
// record against every checkpoint. A failed store append downgrades the
// transition to in-memory only (counted by
// samurai_jobd_store_errors_total) — the API stays truthful for this
// process lifetime even when the WAL is sick.
func (s *Scheduler) transitionLocked(j *Job, st State, errMsg string) {
	if err := s.store.AppendState(j.ID, st, errMsg); err != nil {
		mStoreErrors.Inc()
	}
	old := j.State
	j.State = st
	j.Error = errMsg
	stateGauge(old).Add(-1)
	stateGauge(st).Add(1)
	if old == StateQueued {
		s.nQueued--
		mQueueDepth.Add(-1)
	}
	if st == StateQueued {
		s.nQueued++
		mQueueDepth.Add(1)
	}
	fields := []obs.Field{obs.F("job", j.ID), obs.F("state", string(st))}
	if errMsg != "" {
		fields = append(fields, obs.F("error", errMsg))
	}
	s.emit(j.ID, "jobd.state", fields...)
	if st.Terminal() {
		s.hub.finish(j.ID)
		s.retireLeasesLocked(j)
	}
}

// pickupLocked starts a queued job's run: a fresh tracer under the
// spec's deterministic trace ID, with a flight recorder that is dumped
// beside the WAL when the run fails, retries or drains.
func (s *Scheduler) pickupLocked(j *Job) {
	var flight *trace.Flight
	if s.opts.FlightSize > 0 {
		flight = trace.NewFlight(s.opts.FlightSize)
	}
	j.tracer = trace.New(j.Spec.TraceID(), trace.Options{Flight: flight})
	j.runStart, j.runBase = s.opts.Now(), j.Done()
	s.transitionLocked(j, StateRunning, "")
}

// finishLocked persists a job's summary and completes it.
func (s *Scheduler) finishLocked(j *Job, sum Summary) {
	if err := s.store.AppendResult(j.ID, sum); err != nil {
		mStoreErrors.Inc()
	}
	j.Result = &sum
	s.emit(j.ID, "jobd.done",
		obs.F("job", j.ID),
		obs.F("num_failed", sum.NumFailed),
		obs.F("write_errors", sum.WriteErrors),
		obs.F("slowdowns", sum.Slowdowns))
	s.transitionLocked(j, StateDone, "")
}

// failLocked fails a job loudly and dumps its flight recorder.
func (s *Scheduler) failLocked(j *Job, msg string) {
	s.dumpFlight(j.ID, j.tracer, "failure")
	s.transitionLocked(j, StateFailed, msg)
}

// retried reports one retried cell attempt of an in-process run.
func (s *Scheduler) retried(id string, seed uint64, attempt int, err error) {
	jobScope(id).Counter("samurai_jobd_job_retries_total",
		"per-cell retry attempts of the job's current run").Inc()
	tr, _ := s.Trace(id)
	tr.Event("jobd.retry", seed, uint64(attempt), 0)
	s.emit(id, "jobd.retry",
		obs.F("job", id),
		obs.F("seed", seed),
		obs.F("attempt", attempt),
		obs.F("error", err.Error()))
	s.dumpFlight(id, tr, "retry")
}

// dumpFlight writes the tracer's flight-recorder contents next to the
// WAL as <jobID>-flight-<reason>.jsonl, so the last moments of a
// failed, retried or drained run survive for post-mortem inspection.
// Dumps are best-effort observability: a write failure is emitted, not
// returned.
func (s *Scheduler) dumpFlight(id string, tr *trace.Tracer, reason string) {
	if tr == nil || tr.Flight() == nil {
		return
	}
	path := filepath.Join(filepath.Dir(s.store.Path()), id+"-flight-"+reason+".jsonl")
	fh, err := os.Create(path)
	if err != nil {
		obs.Emit("jobd.flightdump", obs.F("job", id), obs.F("error", err.Error()))
		return
	}
	werr := tr.Flight().WriteJSONL(fh)
	if cerr := fh.Close(); werr == nil {
		werr = cerr
	}
	fields := []obs.Field{obs.F("job", id), obs.F("reason", reason), obs.F("path", path)}
	if werr != nil {
		fields = append(fields, obs.F("error", werr.Error()))
	}
	s.emit(id, "jobd.flightdump", fields...)
}
