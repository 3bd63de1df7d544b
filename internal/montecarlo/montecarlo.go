// Package montecarlo performs statistical RTN analysis of SRAM arrays
// (paper future-work #3): many cell instances, each with its own local
// threshold-voltage variation and its own sampled trap population, are
// pushed through the SAMURAI methodology, and the array-level write
// error / slowdown rates are estimated.
package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"samurai/internal/conc"
	"samurai/internal/device"
	"samurai/internal/obs"
	"samurai/internal/obs/trace"
	"samurai/internal/rareevent"
	"samurai/internal/rng"
	"samurai/internal/sram"
)

// Array-run instrumentation. Cell counts and busy time are accumulated
// per worker and published at worker exit (plus one histogram
// observation per cell — each cell is a full methodology run, so the
// relative cost is nil). Progress events stream through the process
// sink at most once per progressTick per worker. None of this touches
// the rng streams — see internal/obs for the determinism guarantee.
var (
	mCellsDone = obs.GetCounter("samurai_mc_cells_total",
		"array cells fully simulated")
	mCellFailures = obs.GetCounter("samurai_mc_cell_failures_total",
		"array cells whose runner returned an error")
	mCellsDrained = obs.GetCounter("samurai_mc_cells_drained_total",
		"queued cells skipped (drained) after a sibling failure")
	mCellSeconds = obs.GetHistogram("samurai_mc_cell_seconds",
		"wall-clock duration of one cell simulation", obs.TimeBuckets())
	mCellsPerSec = obs.GetGauge("samurai_mc_cells_per_second",
		"throughput of the most recent RunRange")
)

// workerBusy resolves the per-worker utilisation counter.
func workerBusy(w int) *obs.FloatCounter {
	return obs.GetFloatCounter("samurai_mc_worker_busy_seconds_total",
		"per-worker time spent simulating cells",
		obs.L("worker", strconv.Itoa(w)))
}

// progressTick is the minimum interval between montecarlo.progress
// events from a single worker.
const progressTick = 500 * time.Millisecond

// ArrayConfig describes a Monte-Carlo array experiment.
type ArrayConfig struct {
	Tech device.Technology
	// Cell is the nominal cell; each instance perturbs its Vt values.
	Cell sram.CellConfig
	// Pattern is the write pattern applied to every cell.
	Pattern sram.Pattern
	// Cells is the number of instances to simulate.
	Cells int
	// Scale multiplies RTN amplitudes (accelerated testing).
	Scale float64
	// Seed drives all sampling.
	Seed uint64
	// WithRTN disables the RTN pass when false (variation-only
	// reference — isolates how much RTN adds on top of variation).
	WithRTN bool
	// Workers bounds parallelism; 0 → GOMAXPROCS.
	Workers int
}

// CellOutcome summarises one array cell. It is also the checkpoint
// record of the jobd WAL (jobd.CellRecord), so its JSON form is the
// WAL's and /result's: encoding/json writes the shortest float that
// parses back to the same bits, and the rare-event fields are omitted
// when zero, as they are on every plain cell.
type CellOutcome struct {
	Index     int                `json:"index"`
	VtShift   map[string]float64 `json:"vt_shift,omitempty"`
	TrapCount int                `json:"trap_count"`
	Errors    int                `json:"errors"`
	Slow      int                `json:"slow"`
	Failed    bool               `json:"failed"` // any write error
	// LogLR is the importance-sampling log-likelihood ratio of the
	// cell's trap paths (exactly 0 outside rare-event sweeps and at
	// tilt 0 — see markov.UniformiseTilted).
	LogLR float64 `json:"log_lr,omitempty"`
	// GlitchDepth is the rare-event level function sram.GlitchDepth of
	// the cell's Q waveform; 0 outside rare-event sweeps.
	GlitchDepth float64 `json:"glitch_depth,omitempty"`
}

// Equal compares two outcomes of the same cell bit-wise: all integer
// fields, and every float (VtShift, LogLR, GlitchDepth) via
// Float64bits. It is the lease protocol's determinism assertion — two
// executors simulating the same (seed, index) must produce
// indistinguishable outcomes.
func (c CellOutcome) Equal(o CellOutcome) bool {
	if c.Index != o.Index || c.TrapCount != o.TrapCount ||
		c.Errors != o.Errors || c.Slow != o.Slow || c.Failed != o.Failed ||
		math.Float64bits(c.LogLR) != math.Float64bits(o.LogLR) ||
		math.Float64bits(c.GlitchDepth) != math.Float64bits(o.GlitchDepth) ||
		len(c.VtShift) != len(o.VtShift) {
		return false
	}
	for k, cv := range c.VtShift {
		ov, ok := o.VtShift[k]
		if !ok || math.Float64bits(cv) != math.Float64bits(ov) {
			return false
		}
	}
	return true
}

// ArrayResult aggregates the array run.
type ArrayResult struct {
	Config    ArrayConfig
	Outcomes  []CellOutcome
	NumFailed int
	// ErrorRate is failed cells / simulated cells.
	ErrorRate float64
	// MeanTraps is the average trap population per cell (all six
	// transistors).
	MeanTraps float64
	// Rare carries the importance-sampling aggregate (unbiased failure
	// probability, ESS, LR variance, CI) when the sweep ran with
	// ArrayOptions.RareEvent; nil otherwise.
	Rare *rareevent.ArrayStats
}

// CtxRunner executes the methodology on one cell instance and reports
// the write-error count, slowdown count and sampled trap total. A scale
// of 0 means "simulate without RTN" (variation-only reference).
// Cancelling ctx aborts the cell mid-simulation (the public
// samurai.ArrayRunnerCtx plumbs it down to the circuit transient loop).
// The result for a given (cell, pattern, scale, seed) must not depend
// on ctx — cancellation may only abort, never perturb. The indirection
// keeps this package from importing the public samurai package;
// samurai.ArrayRunnerCtx provides the standard implementation.
type CtxRunner func(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale float64, seed uint64) (errors, slow, traps int, err error)

// RareCtxRunner is the tilted counterpart of CtxRunner: the cell is
// simulated with trap propensities importance-tilted by tiltEV and the
// runner reports, alongside the usual counts, the exact per-cell
// log-likelihood ratio of the sampled trap paths and the glitch-depth
// level value of the resulting Q waveform. At tiltEV == 0 the runner
// must be bit-identical to the naive CtxRunner with logLR exactly 0.
// samurai.RareArrayRunnerCtx provides the standard implementation.
type RareCtxRunner func(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale, tiltEV float64, seed uint64) (errors, slow, traps int, logLR, glitch float64, err error)

// AsRare adapts a naive runner to the tilted shape: the tilt is
// ignored, and the log-LR and glitch depth are exactly 0, so a plain
// cell's outcome carries no rare-event fields.
func AsRare(run CtxRunner) RareCtxRunner {
	return func(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale, _ float64, seed uint64) (int, int, int, float64, float64, error) {
		errs, slow, traps, err := run(ctx, cell, pattern, scale, seed)
		return errs, slow, traps, 0, 0, err
	}
}

// RareEventSpec switches an array sweep into importance-sampling mode:
// every cell is simulated under the tilt and the result carries the
// weighted (unbiased) failure-probability aggregate in ArrayResult.Rare.
type RareEventSpec struct {
	// TiltEV is the per-trap energy tilt in eV (0 reproduces the naive
	// sweep bit for bit, weights all exactly 1).
	TiltEV float64
	// Runner is the tilted cell runner.
	Runner RareCtxRunner
}

// ErrDrained is returned (wrapped) by RunRange when the drain channel
// closed before every cell of the range was simulated: the cells in
// flight finished and reached onCell, and the rest can run later as
// another range with a bit-identical outcome.
var ErrDrained = errors.New("montecarlo: array run drained before completion")

// ArrayOptions extends RunArrayCtx. The zero value runs a plain sweep.
type ArrayOptions struct {
	// RareEvent, when non-nil, runs the sweep in importance-sampling
	// mode through spec.Runner (the plain run argument is ignored) and
	// attaches the weighted aggregate to ArrayResult.Rare.
	RareEvent *RareEventSpec
}

// SampleVtShifts draws independent N(0, σ) threshold shifts for the six
// transistors, with σ scaled by the Pelgrom law σ·sqrt(Wmin·Lmin/(W·L)).
func SampleVtShifts(tech device.Technology, cfg sram.CellConfig, r *rng.Stream) map[string]float64 {
	cfg = cfg.Defaults()
	area := func(w float64) float64 { return w * cfg.L }
	ref := tech.WminSRAM * tech.Lmin
	sigma := func(w float64) float64 {
		return tech.SigmaVt * math.Sqrt(ref/area(w))
	}
	return map[string]float64{
		"M1": r.NormMeanStd(0, sigma(cfg.WPassGate)),
		"M2": r.NormMeanStd(0, sigma(cfg.WPassGate)),
		"M3": r.NormMeanStd(0, sigma(cfg.WPullUp)),
		"M4": r.NormMeanStd(0, sigma(cfg.WPullUp)),
		"M5": r.NormMeanStd(0, sigma(cfg.WPullDown)),
		"M6": r.NormMeanStd(0, sigma(cfg.WPullDown)),
	}
}

// RunArrayCtx simulates cfg.Cells independent cells in parallel using
// the supplied per-cell runner and aggregates them: RunRange over every
// cell, then Aggregate over the outcomes in index order. Cancelling ctx
// aborts the sweep (in-flight cells stop as soon as the runner observes
// the cancellation) and returns the wrapped ctx error.
func RunArrayCtx(ctx context.Context, cfg ArrayConfig, run CtxRunner, opts ArrayOptions) (*ArrayResult, error) {
	var cellRun RareCtxRunner
	var tiltEV float64
	switch {
	case opts.RareEvent != nil && opts.RareEvent.Runner == nil:
		return nil, fmt.Errorf("montecarlo: rare-event sweep with nil runner")
	case opts.RareEvent != nil:
		cellRun, tiltEV = opts.RareEvent.Runner, opts.RareEvent.TiltEV
	case run == nil:
		return nil, fmt.Errorf("montecarlo: nil runner")
	default:
		cellRun = AsRare(run)
	}
	if cfg.Cells <= 0 {
		return nil, fmt.Errorf("montecarlo: need a positive cell count, got %d", cfg.Cells)
	}
	// Workers write only their own cell's slot, so the writes are
	// index-disjoint and need no lock.
	outcomes := make([]CellOutcome, cfg.Cells)
	err := RunRange(ctx, cfg, 0, cfg.Cells, cellRun, tiltEV, nil, func(o CellOutcome) { outcomes[o.Index] = o })
	if err != nil {
		return nil, err
	}
	res := Aggregate(outcomes, opts.RareEvent)
	res.Config = cfg
	return res, nil
}

// Aggregate folds a whole array's outcomes, in index order, into its
// result: the failure count and rate and the mean trap count, each
// divided by len(outcomes), and with rare non-nil the weighted estimate
// at rare.TiltEV (the only field it reads), which publishes the
// samurai_rare_* series. It is the one aggregate of an array sweep:
// RunArrayCtx applies it to the cells it simulated and jobd to a job's
// durable records, so the same cells give the same bits however they
// were leased, stolen or resumed. Config is left for the caller.
func Aggregate(outcomes []CellOutcome, rare *RareEventSpec) *ArrayResult {
	res := &ArrayResult{Outcomes: outcomes}
	trapSum := 0
	var est rareevent.Estimator
	for _, o := range outcomes {
		x := 0.0
		if o.Failed {
			res.NumFailed++
			x = 1
		}
		trapSum += o.TrapCount
		if rare != nil {
			est.Add(math.Exp(o.LogLR), x)
		}
	}
	res.ErrorRate = float64(res.NumFailed) / float64(len(outcomes))
	res.MeanTraps = float64(trapSum) / float64(len(outcomes))
	if rare != nil {
		stats := est.Stats(rare.TiltEV)
		res.Rare = &stats
	}
	return res
}

// RunRange simulates cells [lo, hi) of cfg on cfg.Workers goroutines
// (0 → GOMAXPROCS) and passes each cell that finished without error to
// onCell, on the worker that simulated it: onCell must be safe for
// concurrent use. Cell i's streams derive from (cfg.Seed, i) alone, so
// a range's outcomes are bit-identical to the same cells of a whole
// sweep, whichever range they ran in — the invariant that lets jobd
// lease a job out as ranges and resume it from its durable cells.
// Nothing is allocated per cell of the array, only per worker.
//
// Cancelling ctx aborts the range and returns the wrapped ctx error.
// Closing drain stops dispatch: cells in flight finish and reach onCell,
// then RunRange returns ErrDrained; a drain after the last dispatch
// changes nothing. A cell error stops the remaining cells, and the
// error of the lowest failing index is returned.
func RunRange(ctx context.Context, cfg ArrayConfig, lo, hi int, run RareCtxRunner, tiltEV float64, drain <-chan struct{}, onCell func(CellOutcome)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Cells <= 0 {
		return fmt.Errorf("montecarlo: need a positive cell count, got %d", cfg.Cells)
	}
	if run == nil {
		return fmt.Errorf("montecarlo: nil runner")
	}
	if lo < 0 || hi > cfg.Cells || lo >= hi {
		return fmt.Errorf("montecarlo: range [%d,%d) outside [0,%d)", lo, hi, cfg.Cells)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// A worker past the range's cell count would only wait for cells that
	// never come.
	workers = min(workers, hi-lo)
	root := rng.New(cfg.Seed)

	// The array span parents every per-cell span: a tracer installed
	// with trace.NewContext sees montecarlo.run_array → cell[i] →
	// samurai.run → phases for the whole range.
	ctx, span := trace.Start(ctx, "montecarlo.run_array")
	defer span.End()
	start := time.Now()
	var done atomic.Int64      // cells simulated by this run (incl. failures)
	var completed atomic.Int64 // cells simulated without error

	// Failures are aggregated with lowest-cell-index priority, so the
	// reported error is scheduling-independent and remaining workers
	// stop simulating doomed cells early.
	var agg conc.FirstFail
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var busy time.Duration
			var drained int64
			// cellStream is this worker's reusable scratch: every cell
			// re-derives the same child stream Split(i) would allocate,
			// but into the one per-worker Stream value. The parent is
			// only read by SplitInto, so sharing root across workers
			// stays race-free.
			var cellStream rng.Stream
			lastProgress := start
			for i := range jobs {
				if agg.Failed() || ctx.Err() != nil {
					drained++
					continue // drain the queue without simulating
				}
				cellStart := time.Now()
				root.SplitInto(uint64(i), &cellStream)
				cctx, csp := trace.StartInst(ctx, "cell", uint64(i))
				out, err := simulateCell(cctx, cfg, run, tiltEV, i, &cellStream)
				csp.End()
				cellDur := time.Since(cellStart)
				busy += cellDur
				mCellSeconds.Observe(cellDur.Seconds())
				if err != nil {
					if ctx.Err() != nil {
						// Aborted mid-cell by cancellation: neither a
						// finished cell nor a cell failure.
						drained++
						continue
					}
					mCellFailures.Inc()
					agg.Record(i, fmt.Errorf("montecarlo: cell %d: %w", i, err))
					done.Add(1)
					continue
				}
				completed.Add(1)
				onCell(out)
				n := done.Add(1)
				if obs.Enabled() && time.Since(lastProgress) >= progressTick {
					lastProgress = time.Now()
					elapsed := lastProgress.Sub(start).Seconds()
					obs.Emit("montecarlo.progress",
						obs.F("done", n),
						obs.F("cells", cfg.Cells),
						obs.F("cells_per_sec", float64(n)/elapsed))
				}
			}
			workerBusy(w).Add(busy.Seconds())
			mCellsDrained.Add(drained)
		}(w)
	}
dispatch:
	for i := lo; i < hi; i++ {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		case <-drain:
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	finished := done.Load()
	mCellsDone.Add(finished)
	if elapsed > 0 {
		mCellsPerSec.Set(float64(finished) / elapsed)
	}
	obs.Emit("montecarlo.done",
		obs.F("cells", finished),
		obs.F("seconds", elapsed),
		obs.F("cells_per_sec", float64(finished)/elapsed),
		obs.F("workers", workers))
	if err := agg.Err(); err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("montecarlo: array run canceled: %w", err)
	}
	if n := int(completed.Load()); n < hi-lo {
		return fmt.Errorf("%w: %d of %d cells finished", ErrDrained, n, hi-lo)
	}
	return nil
}

// simulateCell draws cell i's Vt shifts and runs it. A naive sweep's
// runner is adapted by AsRare, so one call shape serves both modes.
func simulateCell(ctx context.Context, cfg ArrayConfig, run RareCtxRunner, tiltEV float64, i int, r *rng.Stream) (CellOutcome, error) {
	cell := cfg.Cell
	cell.Tech = cfg.Tech
	cell = cell.Defaults()
	// Stack scratch for the two fixed child streams of every cell —
	// neither escapes, so the per-cell rng cost is zero allocations.
	var vtStream, seedStream rng.Stream
	r.SplitInto(1, &vtStream)
	cell.VtShift = SampleVtShifts(cfg.Tech, cell, &vtStream)

	scale := cfg.Scale
	if !cfg.WithRTN {
		scale = 0
	}
	r.SplitInto(2, &seedStream)
	errs, slow, traps, logLR, glitch, err := run(ctx, cell, cfg.Pattern, scale, tiltEV, seedStream.Uint64())
	if err != nil {
		return CellOutcome{}, err
	}
	return CellOutcome{
		Index: i, VtShift: cell.VtShift,
		TrapCount: traps, Errors: errs, Slow: slow,
		Failed: errs > 0, LogLR: logLR, GlitchDepth: glitch,
	}, nil
}
