package jobd

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"samurai"
	"samurai/internal/montecarlo"
	"samurai/internal/obs"
	"samurai/internal/obs/trace"
	"samurai/internal/sram"
)

// Executor-side instrumentation. A remote worker process serves its own
// metrics surface; in samuraid the in-process executors count here too.
var (
	mwLeases = obs.GetCounter("samurai_fabricw_leases_total",
		"leases acquired by this worker")
	mwCellsSim = obs.GetCounter("samurai_fabricw_cells_simulated_total",
		"cells simulated by this worker")
	mwLost = obs.GetCounter("samurai_fabricw_leases_lost_total",
		"leases lost to stealing or cancellation mid-run")
)

// maxBatch caps the cells of one checkpoint request, keeping every
// batch far inside MaxBodyBytes however large the lease.
const maxBatch = 256

// LeaseClient is an Executor's transport to a Scheduler's lease
// protocol: the Scheduler itself for in-process executors, HTTP for
// remote ones (internal/fabric). Both report the HTTP status each
// exchange maps to, so an executor reacts to 410 (lease gone) the same
// way whatever the transport.
type LeaseClient interface {
	Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, int, error)
	Checkpoint(ctx context.Context, req CheckpointRequest) (CheckpointResponse, int, error)
}

// local is the in-process LeaseClient: direct calls, no transport, and
// the one client allowed the reserved in-process ids.
type local struct{ s *Scheduler }

func (l local) Lease(_ context.Context, req LeaseRequest) (LeaseResponse, int, error) {
	return l.s.lease(req)
}

func (l local) Checkpoint(_ context.Context, req CheckpointRequest) (CheckpointResponse, int, error) {
	return l.s.checkpoint(req)
}

// ExecutorOptions configures an Executor; the zero value is usable.
type ExecutorOptions struct {
	// ID is the executor's identity; empty lets the scheduler assign one
	// on first contact.
	ID string
	// Threads overrides the per-lease cell parallelism (0 keeps the job
	// spec's Workers setting).
	Threads int
	// Poll is the idle re-poll interval when no lease is available
	// (default 500ms). In-process executors never poll: Submit, releases
	// and steals wake them, and so does the earliest lease deadline.
	Poll time.Duration
	// Runner executes one cell of a run or array lease (default
	// samurai.ArrayRunnerCtx()).
	Runner montecarlo.CtxRunner
	// RareRunner executes one cell of a rare_array lease (default
	// samurai.RareArrayRunnerCtx()).
	RareRunner montecarlo.RareCtxRunner
	// ExitWhenDone makes Run return once the scheduler reports every job
	// terminal, instead of waiting for more work forever.
	ExitWhenDone bool
	// OnCheckpoint, when non-nil, observes every cell the scheduler
	// acknowledged as durably accepted (test and chaos hooks).
	OnCheckpoint func(job string, index int)
}

func (o ExecutorOptions) withDefaults() ExecutorOptions {
	if o.Poll <= 0 {
		o.Poll = 500 * time.Millisecond
	}
	if o.Runner == nil {
		o.Runner = samurai.ArrayRunnerCtx()
	}
	if o.RareRunner == nil {
		o.RareRunner = samurai.RareArrayRunnerCtx()
	}
	return o
}

// Executor is the lease loop: it acquires cell-range leases, simulates
// them (an array lease with montecarlo.RunArrayCtx restricted to the
// leased subset, a run job's one cell with one runner call), and
// streams checkpoints back. Executors hold no durable state — killing
// one loses nothing but the lease TTL.
type Executor struct {
	client LeaseClient
	opts   ExecutorOptions
	// s is the owning scheduler of an in-process executor (nil for a
	// remote one). It adds what only the job table's own process can
	// offer: wake-on-submit, the job's tracer, and the scheduler's
	// default retry policy and retry reporting.
	s *Scheduler

	mu sync.Mutex
	id string

	drain     chan struct{}
	drainOnce sync.Once
}

// NewExecutor builds a remote executor over client; Run does the work.
func NewExecutor(client LeaseClient, opts ExecutorOptions) *Executor {
	o := opts.withDefaults()
	return &Executor{client: client, opts: o, id: o.ID, drain: make(chan struct{})}
}

// ID returns the executor's identity (assigned by the scheduler on
// first contact when ExecutorOptions.ID was empty).
func (e *Executor) ID() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.id
}

func (e *Executor) setID(id string) {
	if id == "" {
		return
	}
	e.mu.Lock()
	e.id = id
	e.mu.Unlock()
}

// Drain stops the executor gracefully: in-flight cells finish and
// checkpoint, the unfinished remainder of the current lease is released
// back to the pool, and Run returns nil. Safe to call more than once.
func (e *Executor) Drain() {
	e.drainOnce.Do(func() { close(e.drain) })
}

func (e *Executor) draining() bool {
	select {
	case <-e.drain:
		return true
	default:
		return false
	}
}

// Run executes the lease/simulate/checkpoint loop until the context is
// cancelled (hard abort — the scheduler steals the lease after its
// TTL), Drain is called (graceful), or — with ExitWhenDone — the
// scheduler reports all jobs terminal.
func (e *Executor) Run(ctx context.Context) error {
	for {
		if e.draining() {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		var grant LeaseResponse
		var wake <-chan struct{}
		var steal time.Duration
		if e.s != nil {
			grant, wake, steal = e.s.next(e.ID())
		} else {
			var err error
			if grant, _, err = e.client.Lease(ctx, LeaseRequest{Worker: e.ID()}); err != nil {
				if e.draining() {
					return nil
				}
				return fmt.Errorf("jobd: acquiring lease: %w", err)
			}
			e.setID(grant.Worker)
		}
		if grant.Idle {
			if grant.Done && e.opts.ExitWhenDone {
				return nil
			}
			if err := e.idle(ctx, wake, steal); err != nil {
				return err
			}
			continue
		}
		mwLeases.Inc()
		if err := e.runLease(ctx, grant); err != nil {
			return err
		}
	}
}

// idle waits for work. An in-process executor waits until wake closes
// or, with leases outstanding, until the earliest can be stolen (steal),
// since its holder may have died; a remote one for one poll interval.
func (e *Executor) idle(ctx context.Context, wake <-chan struct{}, steal time.Duration) error {
	if wake == nil {
		steal = e.opts.Poll
	}
	var timeout <-chan time.Time
	if steal > 0 {
		timer := time.NewTimer(steal)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case <-wake:
	case <-timeout:
	case <-e.drain:
	case <-ctx.Done():
		return ctx.Err()
	}
	return nil
}

// runLease simulates one granted cell range. Three goroutine roles:
// the renewal heartbeat keeps the lease alive (and cancels the run the
// moment the scheduler refuses — the lease was stolen or voided,
// further work is waste), the sender streams checkpoint batches, and
// the calling goroutine simulates the cells itself.
func (e *Executor) runLease(ctx context.Context, grant LeaseResponse) error {
	if grant.Spec == nil {
		return fmt.Errorf("jobd: lease %d granted without a spec", grant.Lease)
	}
	cfg, err := grant.Spec.ArrayConfig()
	if err != nil {
		return fmt.Errorf("jobd: lease %d spec: %w", grant.Lease, err)
	}
	switch {
	case e.opts.Threads > 0:
		cfg.Workers = e.opts.Threads
	case cfg.Workers == 0 && e.s != nil:
		cfg.Workers = e.s.opts.Workers
	}

	lctx, cancel := context.WithCancel(ctx)
	defer cancel()
	lost := make(chan struct{})
	var loseOnce sync.Once
	lose := func() {
		loseOnce.Do(func() {
			mwLost.Inc()
			close(lost)
			cancel()
		})
	}

	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		e.heartbeat(lctx, grant, lose)
	}()

	// The checkpoint channel is sized for the whole range, so OnCell
	// (called on simulation goroutines) never blocks on the sender: a
	// slow scheduler stalls durability, not simulation.
	recs := make(chan CellRecord, grant.Hi-grant.Lo)
	var sendErr error
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		if sendErr = e.sendLoop(ctx, grant, recs, lose); sendErr != nil {
			cancel()
		}
	}()

	onCell := func(o montecarlo.CellOutcome) {
		mwCellsSim.Inc()
		recs <- NewCellRecord(o)
	}
	run := e.runner(*grant.Spec, grant.Job)
	rctx := lctx
	if e.s != nil {
		if tr, ok := e.s.Trace(grant.Job); ok {
			rctx = trace.NewContext(lctx, tr)
		}
	}
	var runErr error
	if grant.Spec.Type == TypeRun {
		// A run job's one cell is the nominal cell at the job's seed: no
		// variation is drawn and the seed is not split.
		o := montecarlo.CellOutcome{Index: 0}
		o.Errors, o.Slow, o.TrapCount, _, _, runErr = run(rctx, cfg.Cell, cfg.Pattern, cfg.Scale, 0, cfg.Seed)
		if runErr == nil {
			o.Failed = o.Errors > 0
			onCell(o)
		}
	} else {
		// The executor streams raw records (counts + per-cell log-LR);
		// the aggregate is the scheduler's to compute once every cell is
		// durable, so the lease-local one is discarded.
		_, runErr = montecarlo.RunArrayCtx(rctx, cfg, nil, montecarlo.ArrayOptions{
			Subset:    &montecarlo.IndexRange{Lo: grant.Lo, Hi: grant.Hi},
			Drain:     e.drain,
			OnCell:    onCell,
			RareEvent: &montecarlo.RareEventSpec{TiltEV: grant.Spec.TiltEV, Runner: run},
		})
	}
	close(recs)
	<-senderDone
	cancel()
	hbWG.Wait()

	if sendErr != nil {
		return sendErr
	}
	wasLost := false
	select {
	case <-lost:
		wasLost = true
	default:
	}

	if runErr != nil && !wasLost {
		// Unfinished cells go back to the pool now instead of waiting
		// out the TTL. Best-effort: if the release is lost, expiry
		// covers it. The parent context (not lctx — cancelled above
		// unconditionally) distinguishes a genuine simulation failure,
		// which must fail the job loudly, from an external abort.
		relErr := ""
		if !errors.Is(runErr, montecarlo.ErrDrained) && ctx.Err() == nil {
			relErr = runErr.Error()
		}
		//lint:ignore bareerr best-effort release; lease expiry recovers the cells regardless
		e.client.Lease(ctx, LeaseRequest{Worker: e.ID(), Release: grant.Lease, Error: relErr})
	}

	switch {
	case runErr == nil, errors.Is(runErr, montecarlo.ErrDrained):
		// A drain is graceful: Run's loop observes it and exits.
		return nil
	case ctx.Err() != nil:
		return ctx.Err()
	case wasLost:
		// The scheduler moved on; so do we.
		obs.Emit("fabricw.lost", obs.F("worker", e.ID()), obs.F("lease", grant.Lease))
		return nil
	default:
		return fmt.Errorf("jobd: lease %d (job %s cells [%d,%d)): %w",
			grant.Lease, grant.Job, grant.Lo, grant.Hi, runErr)
	}
}

// runner returns the lease's cell runner wrapped in the job's retry
// policy: RareRunner on a rare_array lease, otherwise Runner with log-LR
// and glitch depth exactly 0, so a plain cell's record carries no
// rare-event fields. An in-process executor falls back to the
// scheduler's default policy and reports every retry on the job's event
// stream.
func (e *Executor) runner(spec Spec, job string) montecarlo.RareCtxRunner {
	run := e.opts.RareRunner
	if spec.Type != TypeRareArray {
		plain := e.opts.Runner
		run = func(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale, _ float64, seed uint64) (nerr, slow, traps int, logLR, glitch float64, err error) {
			nerr, slow, traps, err = plain(ctx, cell, pattern, scale, seed)
			return nerr, slow, traps, 0, 0, err
		}
	}
	r := spec.Retry
	var onRetry func(seed uint64, attempt int, err error)
	if e.s != nil {
		if r.Max == 0 {
			r = e.s.opts.Retry
		}
		onRetry = func(seed uint64, attempt int, err error) { e.s.retried(job, seed, attempt, err) }
	}
	return retryRunner(run, r, onRetry)
}

// heartbeat renews the lease at a third of its TTL until the lease
// context ends. A 410 means the lease is gone (stolen, or its job
// cancelled): the run is abandoned.
func (e *Executor) heartbeat(lctx context.Context, grant LeaseResponse, lose func()) {
	interval := time.Duration(grant.TTLMS) * time.Millisecond / 3
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-lctx.Done():
			return
		case <-ticker.C:
			// Any other failure is transient: the lease survives missed
			// renewals for the remainder of its TTL; try again next tick.
			if _, code, err := e.client.Lease(lctx, LeaseRequest{Worker: e.ID(), Renew: grant.Lease}); err != nil && code == http.StatusGone {
				lose()
				return
			}
		}
	}
}

// sendLoop batches checkpoint records as they arrive and posts each
// batch. A 410 (the job went terminal) abandons the lease and drops the
// rest; any other refusal (409 determinism mismatch, job gone, retries
// exhausted) aborts the lease with an error.
func (e *Executor) sendLoop(ctx context.Context, grant LeaseResponse, recs <-chan CellRecord, lose func()) error {
	gone := false
	for rec := range recs {
		if gone {
			continue
		}
		batch := []CellRecord{rec}
	gather:
		for len(batch) < maxBatch {
			select {
			case r, ok := <-recs:
				if !ok {
					break gather
				}
				batch = append(batch, r)
			default:
				break gather
			}
		}
		_, code, err := e.client.Checkpoint(ctx, CheckpointRequest{
			Worker: e.ID(), Job: grant.Job, Lease: grant.Lease, Cells: batch,
		})
		switch {
		case code == http.StatusGone:
			gone = true
			lose()
			continue
		case err != nil:
			return fmt.Errorf("jobd: checkpointing %d cells of job %s: %w", len(batch), grant.Job, err)
		}
		if e.opts.OnCheckpoint != nil {
			for _, r := range batch {
				e.opts.OnCheckpoint(grant.Job, r.Index)
			}
		}
	}
	return nil
}

// Backoff is the one capped-exponential-backoff retry loop of the lease
// protocol, behind both cell retries and the HTTP transport's request
// retries (internal/fabric). It calls attempt(n) for n = 0, 1, … until
// the attempt succeeds or reports its error final (retry false), or max
// retries are spent, sleeping backoff (doubled each time, capped at
// maxBackoff) in between. A wait cut short by ctx returns the last
// attempt's error.
func Backoff(ctx context.Context, max int, backoff, maxBackoff time.Duration, attempt func(n int) (retry bool, err error)) error {
	for n := 0; ; n++ {
		retry, err := attempt(n)
		if err == nil || !retry || n >= max {
			return err
		}
		timer := time.NewTimer(backoff)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return err
		}
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// retryRunner wraps a cell runner in the Backoff loop for transiently
// failing cells. Retrying is free of determinism hazards: a cell's
// outcome — including a rare cell's log-LR and glitch depth — is a pure
// function of (seed, tiltEV), so a retry either reproduces the failure
// or yields the one true result. Cancellation is never retried, and the
// backoff sleep aborts as soon as ctx does. onRetry (optional) observes
// each attempt that is about to be retried, keyed by the cell's seed —
// the one stable identifier the runner signature carries.
func retryRunner(run montecarlo.RareCtxRunner, r RetrySpec, onRetry func(seed uint64, attempt int, err error)) montecarlo.RareCtxRunner {
	if r.Max <= 0 {
		return run
	}
	r = r.withDefaults()
	return func(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale, tiltEV float64, seed uint64) (nerr, slow, traps int, logLR, glitch float64, err error) {
		err = Backoff(ctx, r.Max, time.Duration(r.BackoffMS)*time.Millisecond, time.Duration(r.MaxBackoffMS)*time.Millisecond,
			func(n int) (bool, error) {
				nerr, slow, traps, logLR, glitch, err = run(ctx, cell, pattern, scale, tiltEV, seed)
				if err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return false, err
				}
				if onRetry != nil && n < r.Max {
					onRetry(seed, n, err)
				}
				return true, err
			})
		return nerr, slow, traps, logLR, glitch, err
	}
}
