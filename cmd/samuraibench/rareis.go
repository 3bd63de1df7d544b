package main

import (
	"context"
	"fmt"
	"math"

	"samurai"
	"samurai/internal/device"
	"samurai/internal/montecarlo"
	"samurai/internal/rareevent"
	"samurai/internal/sram"
)

// Rare-is inputs: the paper's marginal cell at 32 nm, RTN scaled ×15 and
// every trap tilted 0.01 eV toward capture, which makes write errors
// frequent enough to resolve a CI within one run.
const (
	rareScale  = 15
	rareTiltEV = -0.01
	// rareRelCI is the relative CI half-width rare.s_to_ci extrapolates to.
	rareRelCI = 0.2
	// rarePoolOps is how many leading sweeps the rare.* metrics pool, so
	// they are exact for a given seed: 512 cells at full size. A pool
	// with no failure fails the run; at 512 cells that happened for none
	// of seeds 1–30 (2 to 12 failures each), at 256 cells the fewest was
	// one.
	rarePoolOps = 16
)

// rareIS runs importance-sampled montecarlo.RunArrayCtx sweeps.
type rareIS struct {
	seed  uint64
	sizes sizes
	tech  device.Technology
	cell  sram.CellConfig
	// pooled holds the cell outcomes of ops 0 … rarePoolOps−1.
	pooled []montecarlo.CellOutcome
}

func setupRareIS(e env, _ *recorder) (instance, error) {
	tech := device.Node("32nm")
	cell, err := sram.MarginalCellConfig(sram.CellConfig{Tech: tech})
	if err != nil {
		return nil, fmt.Errorf("marginal cell: %w", err)
	}
	return &rareIS{seed: e.seed, sizes: e.sizes, tech: tech, cell: cell}, nil
}

func (r *rareIS) config(k int) montecarlo.ArrayConfig {
	cells := r.sizes.RareCells
	if k == warmupOp {
		cells = r.sizes.WarmCells
	}
	return montecarlo.ArrayConfig{
		Tech: r.tech, Cell: r.cell, Pattern: sram.Fig8Pattern(r.cell.Vdd),
		Cells: cells, Scale: rareScale, Seed: opSeed(r.seed, k),
		WithRTN: true, Workers: cellWorkers,
	}
}

func (r *rareIS) run(ctx context.Context, k int) (checkFn, error) {
	res, err := montecarlo.RunArrayCtx(ctx, r.config(k), nil, montecarlo.ArrayOptions{
		RareEvent: &montecarlo.RareEventSpec{TiltEV: rareTiltEV, Runner: samurai.RareArrayRunnerCtx()},
	})
	if err != nil {
		return nil, err
	}
	if k < rarePoolOps && len(r.pooled) < rarePoolOps*r.sizes.RareCells {
		r.pooled = append(r.pooled, res.Outcomes...)
	}
	return func() (opOut, error) { return sweepDigest(res) }, nil
}

// traced runs the same sweep with the recomposed methodology injected as
// the rare-event runner. The runner opens its spans from the sweep's
// context, which carries the sweep span.
func (r *rareIS) traced(ctx context.Context, rec *recorder, k int) (checkFn, error) {
	sctx, sp := rec.child(ctx, "mc", "mc.run_array")
	defer rec.finish(sp)
	runner := func(_ context.Context, cell sram.CellConfig, p sram.Pattern, scale, tilt float64, seed uint64) (int, int, int, float64, float64, error) {
		cctx, csp := rec.child(sctx, "mc", "mc.cell")
		defer rec.finish(csp)
		c, err := recompose(cctx, rec, samurai.Config{
			Tech: cell.Tech, Cell: cell, Pattern: p, Seed: seed, Scale: scale, TiltEV: tilt,
		})
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		return c.nErr, c.nSlow, c.traps, c.logLR, c.glitch, nil
	}
	res, err := montecarlo.RunArrayCtx(sctx, r.config(k), nil, montecarlo.ArrayOptions{
		RareEvent: &montecarlo.RareEventSpec{TiltEV: rareTiltEV, Runner: runner},
	})
	if err != nil {
		return nil, err
	}
	return func() (opOut, error) { return sweepDigest(res) }, nil
}

// sweepDigest checks an importance-sampled sweep and hashes every cell
// outcome and the weighted aggregate.
func sweepDigest(res *montecarlo.ArrayResult) (opOut, error) {
	st := res.Rare
	if st == nil || st.N != len(res.Outcomes) {
		return opOut{}, fmt.Errorf("sweep of %d cells without a matching rare-event aggregate", len(res.Outcomes))
	}
	for _, x := range []float64{st.PFail, st.ESS, st.LRVar, st.CIHalf} {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return opOut{}, fmt.Errorf("non-finite rare-event aggregate %+v", *st)
		}
	}
	parts := []any{res.NumFailed, res.ErrorRate, res.MeanTraps,
		st.N, st.PFail, st.ESS, st.LRVar, st.CIHalf, st.CVAdjusted}
	for i, o := range res.Outcomes {
		if o.Index != i {
			return opOut{}, fmt.Errorf("outcome %d carries index %d", i, o.Index)
		}
		parts = append(parts, o.Index, o.TrapCount, o.Errors, o.Slow, o.LogLR, o.GlitchDepth)
		for _, name := range sram.Transistors {
			parts = append(parts, o.VtShift[name])
		}
	}
	return opOut{items: len(res.Outcomes), digest: newDigest(parts...)}, nil
}

// layerMetrics adds the recomposed cells' times and the rare-event
// estimator pooled over the first rarePoolOps sweeps, in op and cell
// order. rare.s_to_ci extrapolates those sweeps' wall time to a ±20 %
// relative CI; with no failure observed (p̂ = 0) it is unresolved, which
// fails the run rather than reading as 0.
func (r *rareIS) layerMetrics(m map[string]float64, p *tracedPass) error {
	cells := durations(p.spans, "mc.cell")
	m["mc.cell_ms_p50"] = quantile(cells, 0.5) * 1e3
	m["mc.cell_ms_p95"] = quantile(cells, 0.95) * 1e3
	var est rareevent.Estimator
	for _, o := range r.pooled {
		x := 0.0
		if o.Failed {
			x = 1
		}
		est.Add(math.Exp(o.LogLR), x)
	}
	st := est.Stats(rareTiltEV)
	m["rare.ess_frac"] = ratio(st.ESS, float64(st.N))
	m["rare.lr_var"] = st.LRVar
	if !(st.PFail > 0) {
		return fmt.Errorf("rare.s_to_ci unresolved: no failure in %d cells (p̂ = %v)", st.N, st.PFail)
	}
	rel := st.CIHalf / st.PFail
	m["rare.rel_ci_half"] = rel
	m["rare.s_to_ci"] = sum(p.plain[:min(rarePoolOps, len(p.plain))]) * (rel / rareRelCI) * (rel / rareRelCI)
	return nil
}

func (r *rareIS) close() error { return nil }
