// Package samurai is the public API of the SAMURAI reproduction: an
// accurate method for modelling and simulating non-stationary Random
// Telegraph Noise (RTN) in SRAMs (Aadithya et al., DATE 2011).
//
// The package implements the paper's simulation-driven methodology
// (Fig 8, left):
//
//  1. Simulate the SRAM cell on a write pattern WITHOUT RTN to obtain
//     per-transistor bias waveforms V_gs(t), I_d(t).
//  2. For each transistor, sample a trap profile and run Markov
//     uniformisation (Algorithm 1) under those biases to generate trap
//     occupancy paths and an I_RTN(t) trace (Eq 3).
//  3. Re-simulate the cell WITH the I_RTN current sources installed.
//  4. Classify each write cycle: success, slowdown or write error.
//
// The lower-level building blocks live in internal packages; this
// package exposes the workflow a designer would actually run, plus the
// bidirectionally-coupled co-simulation extension (future-work #1 of
// the paper).
package samurai

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"samurai/internal/circuit"
	"samurai/internal/conc"
	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/obs"
	"samurai/internal/obs/trace"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/sram"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// Methodology instrumentation: each Run is wrapped in a samurai.run
// span with one child span per phase (clean, traps, rtn), and the
// outcome counters below. Purely observational — see internal/obs for
// the determinism guarantee.
var (
	mRuns = obs.GetCounter("samurai_runs_total",
		"completed two-pass methodology runs")
	mRunFailures = obs.GetCounter("samurai_run_failures_total",
		"methodology runs aborted by an error")
	mRunWriteErrors = obs.GetCounter("samurai_run_write_errors_total",
		"failed write cycles observed across RTN-injected passes")
	mRunSlowdowns = obs.GetCounter("samurai_run_slowdowns_total",
		"slowed write cycles observed across RTN-injected passes")
	mRunTraps = obs.GetCounter("samurai_run_traps_total",
		"traps sampled across all transistors of all runs")
)

// Config describes one methodology run.
type Config struct {
	// Tech selects the technology node (see device.Node).
	Tech device.Technology
	// Cell overrides cell sizing; zero values take defaults.
	Cell sram.CellConfig
	// Pattern is the bit sequence written to the cell. A zero Pattern
	// defaults to the paper's Fig 8 pattern.
	Pattern sram.Pattern
	// Seed makes the run reproducible.
	Seed uint64
	// Scale multiplies every I_RTN trace; the paper uses 30 to make
	// the (rare) write error observable ("accelerated RTN testing").
	// Zero means 1 (unscaled).
	Scale float64
	// Dt is the circuit integration step; zero → cycle/400.
	Dt float64
	// TraceSamples is the number of samples per RTN trace; zero → 4096.
	TraceSamples int
	// Method selects the circuit integration scheme (backward Euler by
	// default; see circuit.Method).
	Method circuit.Method
	// Profiles optionally pins the trap population per transistor
	// (keys "M1".."M6"); transistors not present get a population
	// sampled from the technology's statistical profiler.
	Profiles map[string]trap.Profile
	// TiltEV, when non-zero, samples every trap path under the
	// importance-sampling energy tilt E → E+TiltEV (eV) and accumulates
	// the exact log-likelihood ratio into Result.LogLR. Zero runs the
	// untilted batch kernel — the tilted path with TiltEV == 0 is the
	// same code path as a naive run, so results are bit-identical.
	TiltEV float64
}

func (c Config) defaults() Config {
	if c.Tech.Name == "" {
		c.Tech = device.Node("90nm")
	}
	if c.Cell.Tech.Name == "" {
		c.Cell.Tech = c.Tech
	}
	if len(c.Pattern.Bits) == 0 {
		c.Pattern = sram.Fig8Pattern(c.Cell.Defaults().Vdd)
	}
	if c.Scale == 0 {
		c.Scale = 1
	}
	if c.Dt == 0 {
		c.Dt = c.Pattern.Timing.Cycle / 400
	}
	if c.TraceSamples == 0 {
		c.TraceSamples = 4096
	}
	return c
}

// Result is the outcome of a methodology run.
type Result struct {
	Config Config
	// Clean is the RTN-free reference simulation (methodology step 1).
	Clean *sram.RunResult
	// WithRTN is the re-simulation with I_RTN sources (step 3).
	WithRTN *sram.RunResult
	// Profiles, Paths and Traces record the per-transistor trap
	// populations, occupancy sample paths and composed RTN traces.
	Profiles map[string]trap.Profile
	Paths    map[string][]*markov.Path
	Traces   map[string]*rtn.Trace
	// LogLR is the run's total importance-sampling log-likelihood
	// ratio, summed over all transistors' trap paths — exactly 0 when
	// Config.TiltEV is 0.
	LogLR float64
	// GlitchDepth is the rare-event level function of the RTN run's Q
	// waveform (sram.GlitchDepth): 0 for a perfect write, exactly 1 at
	// the Vdd/2 decision threshold, > 1 on a write error.
	GlitchDepth float64
}

// WriteErrors returns the number of failed write cycles in the RTN run.
func (r *Result) WriteErrors() int { return r.WithRTN.NumError }

// Slowdowns returns the number of slowed (but ultimately correct)
// write cycles in the RTN run.
func (r *Result) Slowdowns() int { return r.WithRTN.NumSlow }

// Run executes the full two-pass methodology.
func Run(cfg Config) (*Result, error) {
	return RunCtx(context.Background(), cfg)
}

// RunCtx is Run with cancellation and causal tracing: the context is
// plumbed through both circuit transient passes (checked between
// integration steps) and the per-transistor trap workers, so a
// cancelled run aborts within one integration step, and a tracer
// installed with trace.NewContext records the run's span tree
// (samurai.run → clean/traps/rtn → per-transistor/per-transient).
// Neither cancellation nor tracing ever perturbs the computation — a
// run that completes is bit-identical regardless of the context used.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, span := trace.Start(ctx, "samurai.run")
	defer span.End()
	res, err := run(ctx, cfg)
	if err != nil {
		mRunFailures.Inc()
		return nil, err
	}
	mRuns.Inc()
	mRunWriteErrors.Add(int64(res.WithRTN.NumError))
	mRunSlowdowns.Add(int64(res.WithRTN.NumSlow))
	obs.Emit("samurai.run.done",
		obs.F("writes", len(res.WithRTN.Cycles)),
		obs.F("write_errors", res.WithRTN.NumError),
		obs.F("slowdowns", res.WithRTN.NumSlow))
	return res, nil
}

// run is the methodology body: three phase helpers, each opening its
// own child span (ended on every path via defer — the spanend lint
// rule holds this shape in place).
func run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.defaults()
	root := rng.New(cfg.Seed)

	wl, bl, blb, err := cfg.Pattern.Waveforms()
	if err != nil {
		return nil, fmt.Errorf("samurai: pattern: %w", err)
	}

	cleanCell, clean, err := cleanPass(ctx, cfg, wl, bl, blb)
	if err != nil {
		return nil, err
	}

	res := &Result{
		Config:   cfg,
		Clean:    clean,
		Profiles: map[string]trap.Profile{},
		Paths:    map[string][]*markov.Path{},
		Traces:   map[string]*rtn.Trace{},
	}
	rtnCell, err := trapsPass(ctx, cfg, cleanCell, clean, wl, bl, blb, root, res)
	if err != nil {
		return nil, err
	}

	withRTN, err := rtnPass(ctx, cfg, rtnCell)
	if err != nil {
		return nil, err
	}
	res.WithRTN = withRTN
	res.GlitchDepth = sram.GlitchDepth(cfg.Pattern, withRTN.Q)
	return res, nil
}

// cleanPass is methodology step 1: simulate the cell without RTN to
// extract per-transistor bias waveforms.
func cleanPass(ctx context.Context, cfg Config, wl, bl, blb *waveform.PWL) (*sram.Cell, *sram.RunResult, error) {
	ctx, phase := trace.Start(ctx, "clean")
	defer phase.End()
	cleanCell, err := sram.Build(cfg.Cell, wl, bl, blb)
	if err != nil {
		return nil, nil, fmt.Errorf("samurai: cell: %w", err)
	}
	solver := circuit.Options{Method: cfg.Method, Ctx: ctx}
	clean, err := cleanCell.EvaluateOpts(cfg.Pattern, cfg.Dt, solver)
	if err != nil {
		return nil, nil, fmt.Errorf("samurai: clean pass: %w", err)
	}
	return cleanCell, clean, nil
}

// trapsPass is methodology step 2: per-transistor trap sampling,
// uniformisation (Algorithm 1) and Eq (3) trace composition, with the
// composed traces installed into the returned RTN cell.
func trapsPass(ctx context.Context, cfg Config, cleanCell *sram.Cell, clean *sram.RunResult, wl, bl, blb *waveform.PWL, root *rng.Stream, res *Result) (*sram.Cell, error) {
	ctx, phase := trace.Start(ctx, "traps")
	defer phase.End()
	t0, t1 := 0.0, cfg.Pattern.Duration()
	rtnCell, err := sram.Build(cfg.Cell, wl, bl, blb)
	if err != nil {
		return nil, fmt.Errorf("samurai: RTN cell: %w", err)
	}
	// The six transistors' trap simulations are independent (each has
	// its own deterministic child stream), so they run concurrently;
	// results are deterministic regardless of scheduling. Each worker
	// writes only its own outs[i] slot (index-disjoint); failures are
	// aggregated under a mutex, keeping the lowest transistor index so
	// the reported error is scheduling-independent too.
	type devOut struct {
		name    string
		profile trap.Profile
		paths   []*markov.Path
		trace   *rtn.Trace
		pwl     *waveform.PWL
		logLR   float64
	}
	outs := make([]devOut, len(sram.Transistors))
	var agg conc.FirstFail
	var wg sync.WaitGroup
	for i, name := range sram.Transistors {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			if agg.Failed() || ctx.Err() != nil {
				return // another device already failed (or run canceled); skip the work
			}
			tctx, tsp := trace.StartInst(ctx, "transistor", uint64(i))
			defer tsp.End()
			o := devOut{name: name}
			dev := cleanCell.Params[name]
			profile, ok := cfg.Profiles[name]
			if !ok {
				ctx := cfg.Tech.TrapContext(cfg.Cell.Defaults().Vdd)
				profile = cfg.Tech.TrapProfiler().Sample(dev.W, dev.L, ctx, root.Split(uint64(1000+i)))
			}
			o.profile = profile

			vgs, id, err := clean.Trans.DeviceBias(name)
			if err != nil {
				agg.Record(i, fmt.Errorf("samurai: bias for %s: %w", name, err))
				return
			}
			if cfg.TiltEV != 0 {
				// Importance-sampling pass: the tilted kernel draws
				// from the same child stream the batch kernel would,
				// and accumulates the exact per-profile log-LR. It
				// records the batch kernel's span, so the span tree has
				// the same shape tilted or not.
				_, ksp := trace.Start(tctx, "markov.uniformise")
				o.paths, o.logLR, err = markov.UniformiseProfileTilted(profile, markov.PWLBias(vgs), t0, t1, cfg.TiltEV, root.Split(uint64(2000+i)))
				ksp.End()
			} else {
				// Batched SoA kernel: one shared segment walk over the bias
				// PWL for the whole profile. Paths are bit-identical to the
				// sequential per-trap kernel (TestBatchMatchesSequential),
				// so goldens and resume points are unaffected.
				o.paths, err = markov.UniformiseProfileBatchCtx(tctx, profile, vgs, t0, t1, root.Split(uint64(2000+i)))
			}
			if err != nil {
				agg.Record(i, fmt.Errorf("samurai: uniformisation for %s: %w", name, err))
				return
			}
			o.trace, err = rtn.Compose(o.paths, dev, vgs, id, t0, t1, cfg.TraceSamples)
			if err != nil {
				agg.Record(i, fmt.Errorf("samurai: trace for %s: %w", name, err))
				return
			}
			o.trace.Scale(cfg.Scale)
			o.pwl, err = o.trace.PWL()
			if err != nil {
				agg.Record(i, fmt.Errorf("samurai: trace waveform for %s: %w", name, err))
				return
			}
			outs[i] = o
		}(i, name)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("samurai: run canceled: %w", err)
	}
	if err := agg.Err(); err != nil {
		return nil, err
	}
	traps := 0
	for _, o := range outs {
		res.Profiles[o.name] = o.profile
		res.Paths[o.name] = o.paths
		res.Traces[o.name] = o.trace
		res.LogLR += o.logLR
		traps += len(o.profile.Traps)
		if err := rtnCell.SetRTNTrace(o.name, o.pwl); err != nil {
			return nil, fmt.Errorf("samurai: installing trace for %s: %w", o.name, err)
		}
	}
	mRunTraps.Add(int64(traps))
	return rtnCell, nil
}

// rtnPass is methodology step 3: re-simulate the cell with the I_RTN
// current sources installed.
func rtnPass(ctx context.Context, cfg Config, rtnCell *sram.Cell) (*sram.RunResult, error) {
	ctx, phase := trace.Start(ctx, "rtn")
	defer phase.End()
	solver := circuit.Options{Method: cfg.Method, Ctx: ctx}
	withRTN, err := rtnCell.EvaluateOpts(cfg.Pattern, cfg.Dt, solver)
	if err != nil {
		return nil, fmt.Errorf("samurai: RTN pass: %w", err)
	}
	return withRTN, nil
}

// GenerateTrace is the standalone trace-generation entry point
// (Algorithm 1 + Eq 3) for a single device under explicit bias
// waveforms — the paper's core deliverable decoupled from the SRAM
// methodology.
func GenerateTrace(profile trap.Profile, dev device.MOSParams, vgs, id *waveform.PWL, t0, t1 float64, samples int, seed uint64) (*rtn.Trace, []*markov.Path, error) {
	if samples < 2 {
		return nil, nil, errors.New("samurai: need at least 2 samples")
	}
	r := rng.New(seed)
	paths, err := markov.UniformiseProfileBatch(profile, vgs, t0, t1, r)
	if err != nil {
		return nil, nil, err
	}
	tr, err := rtn.Compose(paths, dev, vgs, id, t0, t1, samples)
	if err != nil {
		return nil, nil, err
	}
	return tr, paths, nil
}
