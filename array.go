package samurai

import (
	"context"

	"samurai/internal/circuit"
	"samurai/internal/montecarlo"
	"samurai/internal/sram"
)

// ArrayRunnerCtx adapts the full methodology (RunCtx) as the per-cell
// worker for montecarlo.RunArrayCtx. A scale of 0 simulates the cell
// without RTN (variation-only reference); otherwise the RTN pass runs
// with the given amplitude scale. Cancelling ctx aborts the in-flight
// cell between circuit integration steps; it never perturbs the result
// of a cell that completes.
func ArrayRunnerCtx() montecarlo.CtxRunner {
	return func(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale float64, seed uint64) (errors, slow, traps int, err error) {
		errors, slow, traps, _, _, err = runCell(ctx, cell, pattern, scale, 0, seed)
		return errors, slow, traps, err
	}
}

// RareArrayRunnerCtx adapts the methodology as the tilted per-cell
// worker for importance-sampled array sweeps
// (montecarlo.ArrayOptions.RareEvent): the cell runs with
// Config.TiltEV set and reports, alongside the usual counts, the
// exact log-likelihood ratio of its trap paths and the glitch-depth
// level value of its Q waveform. It shares one body with
// ArrayRunnerCtx, so at tiltEV == 0 counts and outcomes are
// bit-identical to the naive sweep — scale 0 included — and the log-LR
// is exactly 0.
func RareArrayRunnerCtx() montecarlo.RareCtxRunner { return runCell }

// runCell is the per-cell body of both array runners. A scale of 0
// simulates the cell without RTN: no trap paths are drawn, so the
// log-LR is exactly 0 at any tilt, and the glitch depth is read off the
// clean pass's Q waveform.
func runCell(ctx context.Context, cell sram.CellConfig, pattern sram.Pattern, scale, tiltEV float64, seed uint64) (errors, slow, traps int, logLR, glitch float64, err error) {
	if scale == 0 {
		// Clean-only evaluation: variation can by itself break the
		// write; the RTN machinery is skipped entirely.
		wl, bl, blb, err := pattern.Waveforms()
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		c, err := sram.Build(cell, wl, bl, blb)
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		run, err := c.EvaluateOpts(pattern, 0, circuit.Options{Ctx: ctx})
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		return run.NumError, run.NumSlow, 0, 0, sram.GlitchDepth(pattern, run.Q), nil
	}
	res, err := RunCtx(ctx, Config{
		Tech:    cell.Tech,
		Cell:    cell,
		Pattern: pattern,
		Seed:    seed,
		Scale:   scale,
		TiltEV:  tiltEV,
	})
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	for _, p := range res.Profiles {
		traps += len(p.Traps)
	}
	return res.WithRTN.NumError, res.WithRTN.NumSlow, traps, res.LogLR, res.GlitchDepth, nil
}
