package jobd

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"samurai/internal/montecarlo"
	"samurai/internal/obs"
)

// Lease-protocol instrumentation. Lease churn, steals and duplicate
// checkpoints are the health signals of a sweep: steals climbing means
// executors are dying or the TTL is too tight; duplicate mismatches
// must stay at zero forever (each one is a determinism violation).
var (
	mLeasesGranted = obs.GetCounter("samurai_fabric_leases_granted_total",
		"cell-range leases handed to executors")
	mLeasesOutstanding = obs.GetGauge("samurai_fabric_leases_outstanding",
		"leases currently held by executors")
	mSteals = obs.GetCounter("samurai_fabric_steals_total",
		"expired leases whose cells were returned to the pool")
	mDupCheckpoints = obs.GetCounter("samurai_fabric_duplicate_checkpoints_total",
		"checkpoints for cells that were already durable (bit-verified)")
	mDupMismatches = obs.GetCounter("samurai_fabric_duplicate_mismatches_total",
		"duplicate checkpoints whose payload diverged bit-wise (determinism violations)")
	mWorkers = obs.GetGauge("samurai_fabric_workers",
		"executors that have contacted this scheduler")
)

// workerCells resolves the per-executor checkpoint counter.
func workerCells(id string) *obs.Counter {
	return obs.GetCounter("samurai_fabric_worker_cells_total",
		"cells checkpointed per worker", obs.L("worker", id))
}

// workerRate resolves the per-executor throughput gauge.
func workerRate(id string) *obs.Gauge {
	return obs.GetGauge("samurai_fabric_worker_cells_per_second",
		"checkpoint throughput per worker since first contact", obs.L("worker", id))
}

// LeaseRequest is one lease exchange (POST /fabric/lease over HTTP). At
// most one of Renew or Release is set; with neither, the request
// acquires a fresh lease.
type LeaseRequest struct {
	// Worker identifies the requester. Empty on first contact: the
	// scheduler assigns an id and returns it. Unknown ids (a worker
	// outliving a scheduler restart) are re-registered transparently.
	Worker string `json:"worker,omitempty"`
	// Renew heartbeats an existing lease: its deadline is extended and
	// no new work is handed out. A renewal of an expired, stolen or
	// voided lease fails with 410 — the executor must stop and
	// re-acquire.
	Renew uint64 `json:"renew,omitempty"`
	// Release returns a lease's un-checkpointed cells to the pool
	// without waiting for expiry (the graceful-drain path).
	Release uint64 `json:"release,omitempty"`
	// Error, set on a Release, reports a simulation failure: the job is
	// failed loudly instead of the cells being retried forever. (Cell
	// outcomes are pure functions of the seed, so a simulation error
	// reproduces on any executor — re-leasing cannot fix it.)
	Error string `json:"error,omitempty"`
	// WaitMS, on an acquire, is how long the scheduler may hold the
	// request when no lease is available (a long poll, capped at
	// MaxLeaseWait): it answers as soon as one can be granted, and Idle
	// when the wait passes. 0 answers at once. A scheduler that predates
	// the field refuses it with 400 (strict decoding).
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// LeaseResponse answers an acquire or renew.
type LeaseResponse struct {
	// Worker echoes (or assigns) the worker id.
	Worker string `json:"worker"`
	// Lease identifies the granted lease; 0 when Idle.
	Lease uint64 `json:"lease,omitempty"`
	// Job and Spec describe the job the leased cells belong to.
	Job  string `json:"job,omitempty"`
	Spec *Spec  `json:"spec,omitempty"`
	// Lo and Hi bound the leased contiguous cell-index range [Lo, Hi).
	Lo int `json:"lo,omitempty"`
	Hi int `json:"hi,omitempty"`
	// TTLMS is the lease deadline in milliseconds; the executor renews
	// well inside it (it is also returned on renewals).
	TTLMS int64 `json:"ttl_ms,omitempty"`
	// Idle reports that no lease is available right now.
	Idle bool `json:"idle,omitempty"`
	// Done reports that every known job is terminal (or the scheduler is
	// draining); pollers running with -once may exit.
	Done bool `json:"done,omitempty"`
}

// CheckpointRequest is a batch of completed cells for one job, appended
// to the WAL in order. The lease id is advisory — checkpoints are
// accepted for any non-terminal job even after the lease was stolen,
// because the result is bit-identical either way and the first durable
// checkpoint wins.
type CheckpointRequest struct {
	Worker string       `json:"worker"`
	Job    string       `json:"job"`
	Lease  uint64       `json:"lease,omitempty"`
	Cells  []CellRecord `json:"cells"`
}

// CheckpointResponse reports what the scheduler did with the batch.
type CheckpointResponse struct {
	// Accepted counts cells durably appended by this request.
	Accepted int `json:"accepted"`
	// Duplicates counts cells that were already durable; each one passed
	// the bit-equality assertion.
	Duplicates int `json:"duplicates"`
	// Done / Total is the job's checkpoint progress after the batch.
	Done  int `json:"done"`
	Total int `json:"total"`
	// State is the job's lifecycle state after the batch ("done" once
	// the final cell lands).
	State State `json:"state"`
}

// Status is the lease-level snapshot of the scheduler (GET
// /fabric/status over HTTP).
type Status struct {
	Draining bool `json:"draining"`
	// StealsTotal counts expired leases whose cells were returned to the
	// pool across all jobs since this scheduler started.
	StealsTotal int64         `json:"steals_total"`
	Jobs        []JobStatus   `json:"jobs"`
	Workers     []WorkerState `json:"workers,omitempty"`
}

// JobStatus is one job's sharding state.
type JobStatus struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	CellsDone  int    `json:"cells_done"`
	CellsTotal int    `json:"cells_total"`
	// Pending counts cells neither checkpointed nor currently leased.
	Pending int `json:"pending"`
	// Leased counts cells currently out under a live lease.
	Leased int `json:"leased"`
	// Steals counts leases of this job that expired and were reclaimed.
	Steals int           `json:"steals"`
	Leases []LeaseStatus `json:"leases,omitempty"`
}

// LeaseStatus describes one outstanding lease.
type LeaseStatus struct {
	ID     uint64 `json:"id"`
	Worker string `json:"worker"`
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	// Remaining counts leased cells not yet checkpointed.
	Remaining int `json:"remaining"`
	// ExpiresInMS is the time to the lease deadline (negative once
	// reapable).
	ExpiresInMS int64 `json:"expires_in_ms"`
	Renews      int   `json:"renews"`
}

// WorkerState is the scheduler's liveness view of one executor.
type WorkerState struct {
	ID string `json:"id"`
	// Cells counts checkpoints accepted from this executor.
	Cells int64 `json:"cells"`
	// Leases counts leases ever granted to this executor.
	Leases int64 `json:"leases"`
	// LastContactMS is the time since the executor's last request.
	LastContactMS int64 `json:"last_contact_ms"`
	// CellsPerSec is the executor's checkpoint throughput since first
	// contact with this scheduler process.
	CellsPerSec float64 `json:"cells_per_sec"`
}

// lease is one outstanding grant of a contiguous cell range to one
// executor. Leases are soft state: they exist only in scheduler memory
// and are rebuilt from scratch (empty) after a restart — the WAL holds
// checkpoints, never lease bookkeeping, so wall-clock deadlines stay
// out of the durable record.
type lease struct {
	id     uint64
	jobID  string
	lo, hi int
	worker string
	// expires is the steal deadline; renewals push it out.
	expires time.Time
	renews  int
}

// workerInfo is the scheduler's liveness and throughput view of one
// executor, keyed by the id assigned at first contact.
type workerInfo struct {
	id     string
	cells  int64
	leases int64
	first  time.Time
	last   time.Time
}

// resetPool rebuilds a live job's lease pool from its checkpoints:
// every cell without a durable record is pending. Terminal jobs have no
// pool.
func (j *Job) resetPool() {
	j.leased = map[int]uint64{}
	if j.State.Terminal() {
		return
	}
	j.pending = make([]bool, j.CellsTotal)
	for i := range j.pending {
		if _, ok := j.cells[i]; !ok {
			j.pending[i] = true
			j.nPend++
		}
	}
}

// leasable reports whether the job has cells to hand out.
func (j *Job) leasable() bool {
	return j.nPend > 0 && !j.State.Terminal()
}

// firstRun finds the first contiguous run of pending cells, capped at
// max; the job must be leasable. Granting low indices first keeps early
// cells durable earliest, which is what makes a partially swept array
// useful for peeking.
func (j *Job) firstRun(max int) (lo, hi int) {
	for lo = 0; !j.pending[lo]; lo++ {
	}
	for hi = lo; hi < len(j.pending) && hi-lo < max && j.pending[hi]; hi++ {
	}
	return lo, hi
}

// grant marks the lease's cells as out.
func (j *Job) grant(l *lease) {
	for i := l.lo; i < l.hi; i++ {
		if j.pending[i] {
			j.pending[i] = false
			j.nPend--
			j.leased[i] = l.id
		}
	}
}

// release returns a lease's unfinished cells to the pool and reports
// how many went back. Cells already checkpointed (or re-leased after a
// steal) are untouched.
func (j *Job) release(l *lease) int {
	back := 0
	for i := l.lo; i < l.hi; i++ {
		if j.leased[i] == l.id {
			delete(j.leased, i)
			j.pending[i] = true
			j.nPend++
			back++
		}
	}
	return back
}

// remaining counts the lease's cells still out (not yet checkpointed).
func (j *Job) remaining(l *lease) int {
	n := 0
	for i := l.lo; i < l.hi; i++ {
		if j.leased[i] == l.id {
			n++
		}
	}
	return n
}

// settle clears the pool state for a freshly checkpointed cell,
// whatever its lease history: pending (stolen and not yet re-leased),
// leased to anyone, or already settled.
func (j *Job) settle(i int) {
	if j.pending != nil && j.pending[i] {
		j.pending[i] = false
		j.nPend--
	}
	delete(j.leased, i)
}

// touchWorkerLocked registers or refreshes an executor, assigning an id
// on first contact (or after a restart wiped the roster — the executor
// keeps the id it presents, so its metrics stay continuous).
func (s *Scheduler) touchWorkerLocked(id string, now time.Time) *workerInfo {
	if id == "" {
		for {
			s.workerSeq++
			id = fmt.Sprintf("w-%03d", s.workerSeq)
			if _, taken := s.workers[id]; !taken {
				break
			}
		}
	}
	w, ok := s.workers[id]
	if !ok {
		w = &workerInfo{id: id, first: now}
		s.workers[id] = w
		mWorkers.Set(float64(len(s.workers)))
	}
	w.last = now
	return w
}

// reapLocked steals expired leases: their unfinished cells return to
// the pool for the next acquire. Called on every lease-protocol
// request, so the scheduler needs no background timer: a held acquire
// wakes at the earliest deadline (untilStealLocked) to reap.
func (s *Scheduler) reapLocked(now time.Time) {
	for id, l := range s.leases {
		if !l.expires.Before(now) {
			continue
		}
		j := s.jobs[l.jobID]
		back := j.release(l)
		delete(s.leases, id)
		mLeasesOutstanding.Add(-1)
		if back == 0 {
			// Every cell of the range is durable; the executor just never
			// said goodbye. Quiet completion, not a steal.
			continue
		}
		j.steals++
		s.steals++
		mSteals.Inc()
		s.notifyLocked()
		j.tracer.Event("fabric.steal", l.id, uint64(back), 0)
		obs.Emit("fabric.steal",
			obs.F("job", l.jobID),
			obs.F("lease", l.id),
			obs.F("worker", l.worker),
			obs.F("cells_back", back))
	}
}

// untilStealLocked returns how long until the earliest outstanding
// lease can be reaped (0 with none outstanding). reapLocked takes only
// leases strictly past their deadline, hence the extra millisecond.
func (s *Scheduler) untilStealLocked(now time.Time) time.Duration {
	var d time.Duration
	for _, l := range s.leases {
		if until := l.expires.Sub(now) + time.Millisecond; d == 0 || until < d {
			d = until
		}
	}
	return d
}

// localPrefix starts the ids of in-process executors ("local-1", …).
// Lease and Checkpoint, the remote entry points, refuse it: a remote
// worker posing as an in-process executor could renew or release its
// leases and would merge into its metrics.
const localPrefix = "local-"

// refuseLocal rejects a remote request presenting a reserved id.
func refuseLocal(worker string) error {
	if strings.HasPrefix(worker, localPrefix) {
		return fmt.Errorf("jobd: worker id %q: the prefix %q is reserved for in-process executors", worker, localPrefix)
	}
	return nil
}

// Lease serves one remote lease exchange: acquire, renew or release. It
// returns the response plus the HTTP status the exchange maps to. An
// acquire may be held up to req.WaitMS (see acquire); ctx ends the hold
// early, as when an HTTP client hangs up.
func (s *Scheduler) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, int, error) {
	if err := refuseLocal(req.Worker); err != nil {
		return LeaseResponse{}, http.StatusBadRequest, err
	}
	return s.lease(ctx, req, false)
}

// lease serves a lease exchange from any executor; local marks an
// in-process one, whose acquires are wider (see acquireLocked).
func (s *Scheduler) lease(ctx context.Context, req LeaseRequest, local bool) (LeaseResponse, int, error) {
	if req.Renew == 0 && req.Release == 0 {
		wait := time.Duration(min(req.WaitMS, MaxLeaseWait.Milliseconds())) * time.Millisecond
		return s.acquire(ctx, req.Worker, wait, local), http.StatusOK, nil
	}
	now := s.opts.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.touchWorkerLocked(req.Worker, now)
	s.reapLocked(now)
	if req.Renew != 0 {
		return s.renewLocked(w, req.Renew, now)
	}
	return s.releaseLocked(w, req)
}

// MaxLeaseWait caps how long one acquire is held, well inside the
// fabric worker's 30 s HTTP client timeout.
const MaxLeaseWait = 10 * time.Second

// acquire grants the first available lease (acquireLocked). When there
// is none it holds the request, a long poll, and tries again whenever
// Submit, a release or a steal closes the wake channel and when the
// earliest outstanding lease becomes stealable, so it answers as soon
// as a lease can be granted. It answers Idle once wait passes, ctx
// ends or Drain has finished. wait is real time, whatever Options.Now
// says.
func (s *Scheduler) acquire(ctx context.Context, worker string, wait time.Duration, local bool) LeaseResponse {
	deadline := time.Now().Add(wait)
	for final := wait <= 0; ; {
		now := s.opts.Now()
		s.mu.Lock()
		w := s.touchWorkerLocked(worker, now)
		s.reapLocked(now)
		grant := s.acquireLocked(w, now, local)
		wake, steal := s.wake, s.untilStealLocked(now)
		s.mu.Unlock()
		if !grant.Idle || final {
			return grant
		}
		worker = w.id
		d := time.Until(deadline)
		if steal > 0 {
			d = min(d, steal)
		}
		timer := time.NewTimer(d)
		select {
		case <-wake:
		case <-timer.C:
			// A steal deadline reaps and tries again; the wait's own
			// deadline tries once more, so Done is fresh.
			final = !time.Now().Before(deadline)
		case <-s.drained:
			final = true
		case <-ctx.Done():
			// Granting now would strand the lease with a requester that
			// has gone.
			timer.Stop()
			return grant
		}
		timer.Stop()
	}
}

// errNotHeld answers a renew or release of a lease the caller does not
// hold: the executor must abandon the range and re-acquire.
func errNotHeld(id uint64, worker string) error {
	return fmt.Errorf("jobd: lease %d is not held by %s (expired, stolen, released or voided)", id, worker)
}

// renewLocked pushes a live lease's deadline out.
func (s *Scheduler) renewLocked(w *workerInfo, id uint64, now time.Time) (LeaseResponse, int, error) {
	l, ok := s.leases[id]
	if !ok || l.worker != w.id {
		return LeaseResponse{Worker: w.id}, http.StatusGone, errNotHeld(id, w.id)
	}
	l.expires = now.Add(s.opts.LeaseTTL)
	l.renews++
	return LeaseResponse{
		Worker: w.id, Lease: l.id, Job: l.jobID,
		Lo: l.lo, Hi: l.hi,
		TTLMS: s.opts.LeaseTTL.Milliseconds(),
	}, http.StatusOK, nil
}

// releaseLocked returns a lease's unfinished cells to the pool (the
// graceful drain path). With Error set, the job is failed loudly — an
// executor hit a simulation error that retrying elsewhere cannot fix.
func (s *Scheduler) releaseLocked(w *workerInfo, req LeaseRequest) (LeaseResponse, int, error) {
	l, ok := s.leases[req.Release]
	if !ok || l.worker != w.id {
		return LeaseResponse{Worker: w.id}, http.StatusGone, errNotHeld(req.Release, w.id)
	}
	j := s.jobs[l.jobID]
	back := j.release(l)
	delete(s.leases, l.id)
	mLeasesOutstanding.Add(-1)
	if back > 0 {
		s.notifyLocked()
	}
	j.tracer.Event("fabric.release", l.id, uint64(back), 0)
	if req.Error != "" && !j.State.Terminal() {
		s.failLocked(j, fmt.Sprintf("jobd: worker %s: %s", w.id, req.Error))
	}
	return LeaseResponse{Worker: w.id, Idle: true, Done: s.allTerminalLocked()}, http.StatusOK, nil
}

// acquireLocked grants the first available cell run, walking jobs in
// submission order. With local set (in-process executors) it grants
// LeaseCells per cell worker: the lease is then that many waves of
// cells deep, so the wait for its slowest cell stays a small share of
// it however many cores the job runs on. Remote leases stay LeaseCells
// wide, so a dead worker strands little. A run job's lease is its one
// cell either way.
func (s *Scheduler) acquireLocked(w *workerInfo, now time.Time, local bool) LeaseResponse {
	for _, id := range s.order {
		if s.draining {
			break
		}
		if j := s.jobs[id]; j.leasable() {
			width := s.opts.LeaseCells
			if local {
				width *= max(cmp.Or(j.Spec.Workers, s.opts.Workers, runtime.GOMAXPROCS(0)), 1)
			}
			return s.grantLocked(w, j, width, now)
		}
	}
	return LeaseResponse{
		Worker: w.id, Idle: true,
		Done: s.draining || s.allTerminalLocked(),
	}
}

// grantLocked leases the job's first run of pending cells, at most
// width of them, to w.
func (s *Scheduler) grantLocked(w *workerInfo, j *Job, width int, now time.Time) LeaseResponse {
	lo, hi := j.firstRun(width)
	s.leaseSeq++
	l := &lease{
		id: s.leaseSeq, jobID: j.ID, lo: lo, hi: hi,
		worker: w.id, expires: now.Add(s.opts.LeaseTTL),
	}
	j.grant(l)
	s.leases[l.id] = l
	w.leases++
	mLeasesGranted.Inc()
	mLeasesOutstanding.Add(1)
	if j.State == StateQueued {
		s.pickupLocked(j)
	}
	j.tracer.Event("fabric.grant", l.id, uint64(lo), uint64(hi))
	spec := j.Spec
	return LeaseResponse{
		Worker: w.id, Lease: l.id, Job: j.ID, Spec: &spec,
		Lo: lo, Hi: hi,
		TTLMS: s.opts.LeaseTTL.Milliseconds(),
	}
}

// allTerminalLocked reports whether every known job finished.
func (s *Scheduler) allTerminalLocked() bool {
	for _, j := range s.jobs {
		if !j.State.Terminal() {
			return false
		}
	}
	return true
}

// Checkpoint serves one checkpoint batch. Cells are appended to the WAL
// in request order; duplicates (stolen leases, retried batches) are
// bit-verified against the durable record and dropped. First durable
// checkpoint wins — a mismatch fails the job (409). New cells for a
// terminal job are refused with 410: its leases are void, and the
// executor abandons the range. A WAL that stops accepting appends fails
// the job — running on without durability would break the resume
// contract silently. This is the remote entry point; see Lease.
func (s *Scheduler) Checkpoint(req CheckpointRequest) (CheckpointResponse, int, error) {
	if err := refuseLocal(req.Worker); err != nil {
		return CheckpointResponse{}, http.StatusBadRequest, err
	}
	return s.checkpoint(req)
}

// checkpoint serves a checkpoint batch from any executor.
func (s *Scheduler) checkpoint(req CheckpointRequest) (CheckpointResponse, int, error) {
	now := s.opts.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.touchWorkerLocked(req.Worker, now)
	s.reapLocked(now)

	j, ok := s.jobs[req.Job]
	if !ok {
		return CheckpointResponse{}, http.StatusNotFound, fmt.Errorf("%w %q", ErrNoJob, req.Job)
	}
	resp := CheckpointResponse{Total: j.CellsTotal}
	reply := func(code int, err error) (CheckpointResponse, int, error) {
		resp.Done, resp.State = j.Done(), j.State
		return resp, code, err
	}
	for _, rec := range req.Cells {
		if rec.Index < 0 || rec.Index >= j.CellsTotal {
			return reply(http.StatusBadRequest,
				fmt.Errorf("jobd: cell index %d outside [0,%d)", rec.Index, j.CellsTotal))
		}
		if prev, dup := j.cells[rec.Index]; dup {
			mDupCheckpoints.Inc()
			if !prev.Equal(rec) {
				mDupMismatches.Inc()
				msg := fmt.Sprintf(
					"jobd: duplicate checkpoint for job %s cell %d from worker %s diverges from the durable record (determinism violation)",
					j.ID, rec.Index, w.id)
				if !j.State.Terminal() {
					s.failLocked(j, msg)
				}
				return reply(http.StatusConflict, errors.New(msg))
			}
			resp.Duplicates++
			continue
		}
		if j.State.Terminal() {
			return reply(http.StatusGone,
				fmt.Errorf("jobd: job %s is %s; its leases are void", j.ID, j.State))
		}
		if err := s.store.AppendCell(j.ID, rec); err != nil {
			mStoreErrors.Inc()
			err = fmt.Errorf("jobd: checkpoint store failed: %w", err)
			s.failLocked(j, err.Error())
			return reply(http.StatusInternalServerError, err)
		}
		j.cells[rec.Index] = rec
		j.settle(rec.Index)
		resp.Accepted++
		w.cells++
		mCellsCheckpointed.Inc()
		workerCells(w.id).Inc()
		j.tracer.Event("jobd.cell", uint64(rec.Index), uint64(j.Done()), uint64(j.CellsTotal))
		s.emit(j.ID, "jobd.cell",
			obs.F("job", j.ID),
			obs.F("index", rec.Index),
			obs.F("done", j.Done()),
			obs.F("cells", j.CellsTotal))
	}
	if elapsed := now.Sub(w.first).Seconds(); elapsed > 0 {
		workerRate(w.id).Set(float64(w.cells) / elapsed)
	}
	if elapsed := now.Sub(j.runStart).Seconds(); resp.Accepted > 0 && !j.runStart.IsZero() && elapsed > 0 {
		jobScope(j.ID).Gauge("samurai_jobd_job_cells_per_second",
			"fresh cells per second of the job's current run").Set(float64(j.Done()-j.runBase) / elapsed)
	}
	s.retireLeasesLocked(j)
	if !j.State.Terminal() && j.Done() == j.CellsTotal {
		s.finalizeLocked(j)
	}
	return reply(http.StatusOK, nil)
}

// retireLeasesLocked drops the job's leases that have nothing left to
// do: every lease once the job is terminal, otherwise those whose every
// cell is durable — the holder's own final checkpoint, or a faster
// thief draining a re-leased range cell by cell. Without this, a
// finished lease would linger to its TTL and read as a steal.
func (s *Scheduler) retireLeasesLocked(j *Job) {
	for id, l := range s.leases {
		if l.jobID != j.ID || (!j.State.Terminal() && j.remaining(l) > 0) {
			continue
		}
		delete(s.leases, id)
		mLeasesOutstanding.Add(-1)
		j.tracer.Event("fabric.complete", l.id, uint64(l.lo), uint64(l.hi))
	}
}

// finalizeLocked completes a fully checkpointed job. A run job's summary
// is its one cell's counts. An array job's is montecarlo.Aggregate over
// the durable records in index order, the aggregate RunArrayCtx
// returns, so it is bit-identical to an uninterrupted single-process
// sweep however the cells were leased, stolen or resumed.
func (s *Scheduler) finalizeLocked(j *Job) {
	recs := j.Records()
	if j.Spec.Type == TypeRun {
		s.finishLocked(j, Summary{WriteErrors: recs[0].Errors, Slowdowns: recs[0].Slow, Traps: recs[0].TrapCount})
		return
	}
	var rare *montecarlo.RareEventSpec
	if j.Spec.Type == TypeRareArray {
		rare = &montecarlo.RareEventSpec{TiltEV: j.Spec.TiltEV}
	}
	res := montecarlo.Aggregate(recs, rare)
	s.finishLocked(j, Summary{NumFailed: res.NumFailed, ErrorRate: res.ErrorRate, MeanTraps: res.MeanTraps, Rare: res.Rare})
}

// Status snapshots the lease state of every job and executor.
func (s *Scheduler) Status() Status {
	now := s.opts.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reapLocked(now)

	st := Status{Draining: s.draining, StealsTotal: s.steals, Jobs: []JobStatus{}}
	byJob := map[string][]*lease{}
	for _, l := range s.leases {
		byJob[l.jobID] = append(byJob[l.jobID], l)
	}
	for _, id := range s.order {
		j := s.jobs[id]
		js := JobStatus{
			ID:         id,
			State:      j.State,
			CellsDone:  j.Done(),
			CellsTotal: j.CellsTotal,
			Pending:    j.nPend,
			Leased:     len(j.leased),
			Steals:     j.steals,
		}
		ls := byJob[id]
		sort.Slice(ls, func(a, b int) bool { return ls[a].id < ls[b].id })
		for _, l := range ls {
			js.Leases = append(js.Leases, LeaseStatus{
				ID: l.id, Worker: l.worker, Lo: l.lo, Hi: l.hi,
				Remaining:   j.remaining(l),
				ExpiresInMS: l.expires.Sub(now).Milliseconds(),
				Renews:      l.renews,
			})
		}
		st.Jobs = append(st.Jobs, js)
	}
	ids := make([]string, 0, len(s.workers))
	for id := range s.workers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		w := s.workers[id]
		ws := WorkerState{
			ID: id, Cells: w.cells, Leases: w.leases,
			LastContactMS: now.Sub(w.last).Milliseconds(),
		}
		if elapsed := now.Sub(w.first).Seconds(); elapsed > 0 {
			ws.CellsPerSec = float64(w.cells) / elapsed
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}
