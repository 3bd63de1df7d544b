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
		"throughput of the most recent RunArrayCtx")
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

// CellOutcome summarises one array cell.
type CellOutcome struct {
	Index     int
	VtShift   map[string]float64
	TrapCount int
	Errors    int
	Slow      int
	Failed    bool // any write error
	// LogLR is the importance-sampling log-likelihood ratio of the
	// cell's trap paths (exactly 0 outside rare-event sweeps and at
	// tilt 0 — see markov.UniformiseTilted).
	LogLR float64
	// GlitchDepth is the rare-event level function sram.GlitchDepth of
	// the cell's Q waveform; 0 outside rare-event sweeps.
	GlitchDepth float64
	Err         error
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

// ErrDrained is returned (wrapped) by RunArrayCtx when the drain
// channel closed before every cell was simulated: in-flight cells were
// finished and checkpointed through OnCell, and the run can be resumed
// later via ArrayOptions.Resume with a bit-identical final result.
var ErrDrained = errors.New("montecarlo: array run drained before completion")

// IndexRange selects the contiguous cell subset [Lo, Hi) of an array
// sweep — the unit of work the distributed fabric leases to one worker.
type IndexRange struct {
	Lo, Hi int
}

// size returns the number of cells in the range.
func (r IndexRange) size() int { return r.Hi - r.Lo }

// contains reports whether i falls inside the range.
func (r IndexRange) contains(i int) bool { return i >= r.Lo && i < r.Hi }

// ArrayOptions extends RunArrayCtx with checkpoint/resume hooks. The
// zero value runs a plain full sweep.
type ArrayOptions struct {
	// Resume holds outcomes of cells already simulated by an earlier
	// (interrupted) run of the same ArrayConfig. Those cells are not
	// re-simulated; their outcomes are copied into the result verbatim.
	// Because per-cell streams derive deterministically from the root
	// seed (rng.Stream.SplitInto(i)), the combined result is
	// bit-identical to an uninterrupted run.
	Resume []CellOutcome
	// Subset, when non-nil, restricts the sweep to cell indices in
	// [Lo, Hi): only those cells are dispatched, the completion check
	// counts only them, and the result aggregates cover only them. Cell
	// rng streams derive from (Seed, index) exactly as in a full sweep,
	// so a subset run's outcomes are bit-identical to the corresponding
	// slice of a full run — the invariant that lets the fabric shard one
	// job across workers with no coordination beyond index ranges.
	Subset *IndexRange
	// OnCell, when non-nil, is invoked once per freshly simulated cell
	// that completed without a simulation error — the checkpoint hook.
	// It is called from worker goroutines and must be safe for
	// concurrent use; it must not mutate the outcome.
	OnCell func(CellOutcome)
	// Drain, when non-nil and closed, stops the dispatch of new cells:
	// in-flight cells finish (and checkpoint through OnCell), then
	// RunArrayCtx returns ErrDrained. Closing Drain after the last cell
	// was dispatched has no effect — the run completes normally.
	Drain <-chan struct{}
	// RareEvent, when non-nil, runs the sweep in importance-sampling
	// mode through spec.Runner (the plain run argument is ignored) and
	// attaches the weighted aggregate to ArrayResult.Rare. Composes
	// with Resume/Subset/OnCell/Drain — outcomes carry their LogLR, so
	// resumed and sharded rare sweeps stay bit-identical.
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
// the supplied per-cell runner. Cancelling ctx aborts the sweep (in-flight cells stop as soon as the
// runner observes the cancellation) and returns the wrapped ctx error;
// closing opts.Drain stops dispatch but lets in-flight cells finish and
// checkpoint, returning ErrDrained. Cells listed in opts.Resume are
// skipped and their stored outcomes reused, which — because every
// cell's stream is a pure function of (cfg.Seed, cell index) — makes a
// resumed sweep bit-identical to an uninterrupted one.
func RunArrayCtx(ctx context.Context, cfg ArrayConfig, run CtxRunner, opts ArrayOptions) (*ArrayResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.Cells <= 0 {
		return nil, fmt.Errorf("montecarlo: need a positive cell count, got %d", cfg.Cells)
	}
	if opts.RareEvent != nil {
		if opts.RareEvent.Runner == nil {
			return nil, fmt.Errorf("montecarlo: rare-event sweep with nil runner")
		}
	} else if run == nil {
		return nil, fmt.Errorf("montecarlo: nil runner")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sel := IndexRange{Lo: 0, Hi: cfg.Cells}
	if opts.Subset != nil {
		sel = *opts.Subset
		if sel.Lo < 0 || sel.Hi > cfg.Cells || sel.Lo >= sel.Hi {
			return nil, fmt.Errorf("montecarlo: subset [%d,%d) outside [0,%d)", sel.Lo, sel.Hi, cfg.Cells)
		}
	}
	root := rng.New(cfg.Seed)
	outcomes := make([]CellOutcome, cfg.Cells)
	resumed := make([]bool, cfg.Cells)
	// nResumed counts resumed cells inside the dispatched range: those
	// are the only ones the completion check below may credit.
	nResumed := 0
	for _, o := range opts.Resume {
		if o.Index < 0 || o.Index >= cfg.Cells {
			return nil, fmt.Errorf("montecarlo: resume outcome index %d outside [0,%d)", o.Index, cfg.Cells)
		}
		if resumed[o.Index] {
			return nil, fmt.Errorf("montecarlo: duplicate resume outcome for cell %d", o.Index)
		}
		if o.Err != nil {
			return nil, fmt.Errorf("montecarlo: resume outcome for cell %d carries an error", o.Index)
		}
		resumed[o.Index] = true
		outcomes[o.Index] = o
		if sel.contains(o.Index) {
			nResumed++
		}
	}

	// The array span parents every per-cell span: a tracer installed
	// with trace.NewContext sees montecarlo.run_array → cell[i] →
	// samurai.run → phases for the whole sweep.
	ctx, span := trace.Start(ctx, "montecarlo.run_array")
	defer span.End()
	start := time.Now()
	var done atomic.Int64      // cells simulated by this run (incl. failures)
	var completed atomic.Int64 // cells simulated AND checkpointable (no error)

	// Workers write only their own outcomes[i] slot (index-disjoint);
	// failures are aggregated under a mutex with lowest-cell-index
	// priority, so the reported error is scheduling-independent and
	// remaining workers stop simulating doomed batches early.
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
				out := simulateCell(cctx, cfg, run, opts.RareEvent, i, &cellStream)
				csp.End()
				cellDur := time.Since(cellStart)
				busy += cellDur
				mCellSeconds.Observe(cellDur.Seconds())
				if out.Err != nil {
					if ctx.Err() != nil {
						// Aborted mid-cell by cancellation: neither a
						// checkpoint nor a cell failure.
						drained++
						continue
					}
					mCellFailures.Inc()
					agg.Record(i, fmt.Errorf("montecarlo: cell %d: %w", out.Index, out.Err))
					outcomes[i] = out
					done.Add(1)
					continue
				}
				outcomes[i] = out
				completed.Add(1)
				if opts.OnCell != nil {
					opts.OnCell(out)
				}
				n := done.Add(1)
				if obs.Enabled() && time.Since(lastProgress) >= progressTick {
					lastProgress = time.Now()
					elapsed := lastProgress.Sub(start).Seconds()
					obs.Emit("montecarlo.progress",
						obs.F("done", int64(nResumed)+n),
						obs.F("cells", cfg.Cells),
						obs.F("cells_per_sec", float64(n)/elapsed))
				}
			}
			workerBusy(w).Add(busy.Seconds())
			mCellsDrained.Add(drained)
		}(w)
	}
dispatch:
	for i := sel.Lo; i < sel.Hi; i++ {
		if resumed[i] {
			continue
		}
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		case <-opts.Drain:
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
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("montecarlo: array run canceled: %w", err)
	}
	if total := nResumed + int(completed.Load()); total < sel.size() {
		return nil, fmt.Errorf("%w: %d of %d cells checkpointed", ErrDrained, total, sel.size())
	}

	// Aggregates cover the dispatched range only (the whole array when
	// no Subset is set): a fabric worker's partial run must not dilute
	// its rates with the zero outcomes of cells it never simulated.
	res := &ArrayResult{Config: cfg, Outcomes: outcomes}
	trapSum := 0
	for _, o := range outcomes[sel.Lo:sel.Hi] {
		if o.Failed {
			res.NumFailed++
		}
		trapSum += o.TrapCount
	}
	res.ErrorRate = float64(res.NumFailed) / float64(sel.size())
	res.MeanTraps = float64(trapSum) / float64(sel.size())
	if opts.RareEvent != nil {
		// The weighted aggregate is accumulated sequentially in index
		// order over the dispatched range — never inside the workers —
		// so it is independent of scheduling and identical whether the
		// outcomes were simulated here, resumed, or merged by the
		// fabric from per-shard records.
		var est rareevent.Estimator
		for _, o := range outcomes[sel.Lo:sel.Hi] {
			x := 0.0
			if o.Failed {
				x = 1
			}
			est.Add(math.Exp(o.LogLR), x)
		}
		stats := est.Stats(opts.RareEvent.TiltEV)
		res.Rare = &stats
	}
	return res, nil
}

func simulateCell(ctx context.Context, cfg ArrayConfig, run CtxRunner, rare *RareEventSpec, i int, r *rng.Stream) CellOutcome {
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
	if rare != nil {
		errs, slow, traps, logLR, glitch, err := rare.Runner(ctx, cell, cfg.Pattern, scale, rare.TiltEV, seedStream.Uint64())
		return CellOutcome{
			Index: i, VtShift: cell.VtShift,
			TrapCount: traps, Errors: errs, Slow: slow,
			Failed: errs > 0, LogLR: logLR, GlitchDepth: glitch, Err: err,
		}
	}
	errs, slow, traps, err := run(ctx, cell, cfg.Pattern, scale, seedStream.Uint64())
	return CellOutcome{
		Index: i, VtShift: cell.VtShift,
		TrapCount: traps, Errors: errs, Slow: slow,
		Failed: errs > 0, Err: err,
	}
}
