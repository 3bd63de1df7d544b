package main

import (
	"context"
	"fmt"

	"samurai"
	"samurai/internal/circuit"
	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/sram"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// cellRunScale is the paper's accelerated-RTN amplitude factor, which
// makes write errors observable in single runs.
const cellRunScale = 30

// cellRun runs samurai.RunCtx on the default cell, one seed per op.
type cellRun struct {
	seed uint64
}

func setupCellRun(e env, _ *recorder) (instance, error) { return &cellRun{seed: e.seed}, nil }

func (c *cellRun) config(k int) samurai.Config {
	return samurai.Config{Seed: opSeed(c.seed, k), Scale: cellRunScale}
}

// runDigest hashes every output the methodology's verdict rests on.
func runDigest(q *waveform.PWL, nErr, nSlow int, logLR, glitch float64) string {
	return newDigest(q.T, q.V, nErr, nSlow, logLR, glitch)
}

func (c *cellRun) run(ctx context.Context, k int) (checkFn, error) {
	res, err := samurai.RunCtx(ctx, c.config(k))
	if err != nil {
		return nil, err
	}
	return func() (opOut, error) {
		if err := checkRun(res.Config.Pattern, res.WithRTN); err != nil {
			return opOut{}, err
		}
		return opOut{items: 1, digest: runDigest(res.WithRTN.Q, res.WithRTN.NumError, res.WithRTN.NumSlow, res.LogLR, res.GlitchDepth)}, nil
	}, nil
}

func (c *cellRun) traced(ctx context.Context, rec *recorder, k int) (checkFn, error) {
	res, err := recompose(ctx, rec, c.config(k))
	if err != nil {
		return nil, err
	}
	return func() (opOut, error) {
		return opOut{items: 1, digest: runDigest(res.q, res.nErr, res.nSlow, res.logLR, res.glitch)}, nil
	}, nil
}

// layerMetrics adds samurai.self_ms_per_op: the API's median run time
// minus the recomposed sequential one. Negative means the API's parallel
// trap phase saves more than its own bookkeeping costs.
func (c *cellRun) layerMetrics(m map[string]float64, p *tracedPass) error {
	m["samurai.self_ms_per_op"] = (quantile(p.plain, 0.5) - quantile(p.traced, 0.5)) * 1e3
	return nil
}

func (c *cellRun) close() error { return nil }

// checkRun is the sanity check every methodology result must pass: one
// classified cycle per written bit, and error and slowdown counts that
// match the cycles (a failed write can also be slow).
func checkRun(p sram.Pattern, r *sram.RunResult) error {
	if len(r.Cycles) != len(p.Bits) {
		return fmt.Errorf("%d classified cycles for %d written bits", len(r.Cycles), len(p.Bits))
	}
	nErr, nSlow := 0, 0
	for _, c := range r.Cycles {
		if !c.Written {
			nErr++
		}
		if c.Slow {
			nSlow++
		}
	}
	if r.NumError != nErr || r.NumSlow != nSlow {
		return fmt.Errorf("counts %d errors, %d slowdowns; the cycles hold %d and %d", r.NumError, r.NumSlow, nErr, nSlow)
	}
	if r.Q == nil || r.Q.Len() < 2 {
		return fmt.Errorf("empty Q waveform")
	}
	return nil
}

// composed is the part of a recomposed run the benchmark compares.
type composed struct {
	q           *waveform.PWL
	nErr, nSlow int
	logLR       float64
	glitch      float64
	traps       int
}

// defaults mirrors samurai.Config's unexported defaulting. Any drift
// shows up as a failed bit-identity check in the traced pass.
func defaults(c samurai.Config) samurai.Config {
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

// recompose runs the methodology of samurai.RunCtx from its layers'
// public calls, in the same order and with the same random streams, with
// one span around each layer call. The six transistors run one after the
// other, so every span's time belongs to exactly one layer.
func recompose(ctx context.Context, rec *recorder, cfg samurai.Config) (*composed, error) {
	cfg = defaults(cfg)
	root := rng.New(cfg.Seed)
	wl, bl, blb, err := cfg.Pattern.Waveforms()
	if err != nil {
		return nil, err
	}
	build := func() (*sram.Cell, error) {
		_, sp := rec.child(ctx, "sram", "sram.build")
		defer rec.finish(sp)
		return sram.Build(cfg.Cell, wl, bl, blb)
	}
	evaluate := func(name string, c *sram.Cell) (*sram.RunResult, error) {
		sctx, sp := rec.child(ctx, "circuit", name)
		defer rec.finish(sp)
		return c.EvaluateOpts(cfg.Pattern, cfg.Dt, circuit.Options{Method: cfg.Method, Ctx: sctx})
	}
	uniformise := func(i int, profile trap.Profile, vgs *waveform.PWL, t0, t1 float64) ([]*markov.Path, float64, error) {
		sctx, sp := rec.child(ctx, "markov", "markov.uniformise")
		defer rec.finish(sp)
		if cfg.TiltEV != 0 {
			return markov.UniformiseProfileTilted(profile, markov.PWLBias(vgs), t0, t1, cfg.TiltEV, root.Split(uint64(2000+i)))
		}
		paths, err := markov.UniformiseProfileBatchCtx(sctx, profile, vgs, t0, t1, root.Split(uint64(2000+i)))
		return paths, 0, err
	}

	cleanCell, err := build()
	if err != nil {
		return nil, err
	}
	clean, err := evaluate("circuit.clean", cleanCell)
	if err != nil {
		return nil, err
	}
	rtnCell, err := build()
	if err != nil {
		return nil, err
	}
	out := &composed{}
	t0, t1 := 0.0, cfg.Pattern.Duration()
	for i, name := range sram.Transistors {
		dev := cleanCell.Params[name]
		profile, pinned := cfg.Profiles[name]
		if !pinned {
			_, sp := rec.child(ctx, "trap", "trap.sample")
			tctx := cfg.Tech.TrapContext(cfg.Cell.Defaults().Vdd)
			profile = cfg.Tech.TrapProfiler().Sample(dev.W, dev.L, tctx, root.Split(uint64(1000+i)))
			rec.finish(sp)
		}
		out.traps += len(profile.Traps)
		_, sp := rec.child(ctx, "circuit", "circuit.bias")
		vgs, id, err := clean.Trans.DeviceBias(name)
		rec.finish(sp)
		if err != nil {
			return nil, err
		}
		paths, logLR, err := uniformise(i, profile, vgs, t0, t1)
		if err != nil {
			return nil, err
		}
		out.logLR += logLR
		_, sp = rec.child(ctx, "rtn", "rtn.compose")
		tr, err := rtn.Compose(paths, dev, vgs, id, t0, t1, cfg.TraceSamples)
		var pwl *waveform.PWL
		if err == nil {
			pwl, err = tr.Scale(cfg.Scale).PWL()
		}
		rec.finish(sp)
		if err != nil {
			return nil, err
		}
		_, sp = rec.child(ctx, "sram", "sram.set_rtn")
		err = rtnCell.SetRTNTrace(name, pwl)
		rec.finish(sp)
		if err != nil {
			return nil, err
		}
	}
	withRTN, err := evaluate("circuit.rtn", rtnCell)
	if err != nil {
		return nil, err
	}
	if err := checkRun(cfg.Pattern, withRTN); err != nil {
		return nil, err
	}
	_, sp := rec.child(ctx, "sram", "sram.detect")
	out.glitch = sram.GlitchDepth(cfg.Pattern, withRTN.Q)
	rec.finish(sp)
	out.q, out.nErr, out.nSlow = withRTN.Q, withRTN.NumError, withRTN.NumSlow
	return out, nil
}
