package main

import (
	"context"
	"fmt"

	"samurai"
	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/trap"
	"samurai/internal/waveform"
)

// Trace-gen inputs: a 1 MHz 0↔Vdd gate square wave with 1 ns edges and a
// constant 50 µA drain current on a 32 nm, W = 2·Lmin NMOS.
const (
	traceGenPeriod = 1e-6
	traceGenEdge   = 1e-9
	traceGenID     = 50e-6
)

// traceGen runs samurai.GenerateTrace, one sampled trap profile per op.
type traceGen struct {
	seed    uint64
	sizes   sizes
	tech    device.Technology
	dev     device.MOSParams
	vgs, id *waveform.PWL
}

func setupTraceGen(e env, _ *recorder) (instance, error) {
	tech := device.Node("32nm")
	var ts, vs []float64
	for t := 0.0; t < e.sizes.TraceSpan; t += traceGenPeriod {
		half := t + traceGenPeriod/2
		ts = append(ts, t, t+traceGenEdge, half, half+traceGenEdge)
		vs = append(vs, 0, tech.Vdd, tech.Vdd, 0)
	}
	vgs, err := waveform.New(ts, vs)
	if err != nil {
		return nil, fmt.Errorf("bias waveform: %w", err)
	}
	return &traceGen{
		seed: e.seed, sizes: e.sizes, tech: tech,
		dev: device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin),
		vgs: vgs, id: waveform.Constant(traceGenID),
	}, nil
}

// profile samples op k's trap population from its own stream.
func (g *traceGen) profile(k int) trap.Profile {
	ctx := g.tech.TrapContext(g.tech.Vdd)
	return g.tech.TrapProfiler().Sample(g.dev.W, g.dev.L, ctx, rng.New(opSeed(g.seed, k)).Split(1))
}

// traceDigest hashes the trace and every trap path.
func traceDigest(tr *rtn.Trace, paths []*markov.Path) (opOut, error) {
	if len(tr.T) < 2 || len(tr.T) != len(tr.I) {
		return opOut{}, fmt.Errorf("trace has %d times and %d samples", len(tr.T), len(tr.I))
	}
	parts := []any{tr.T, tr.I, len(paths)}
	for _, p := range paths {
		if err := p.Validate(); err != nil {
			return opOut{}, err
		}
		first := 0
		if p.Filled[0] {
			first = 1
		}
		parts = append(parts, p.Times, first, p.End)
	}
	return opOut{items: 1, digest: newDigest(parts...)}, nil
}

func (g *traceGen) run(_ context.Context, k int) (checkFn, error) {
	tr, paths, err := samurai.GenerateTrace(g.profile(k), g.dev, g.vgs, g.id, 0, g.sizes.TraceSpan, g.sizes.TraceSamples, opSeed(g.seed, k))
	if err != nil {
		return nil, err
	}
	return func() (opOut, error) { return traceDigest(tr, paths) }, nil
}

// traced recomposes GenerateTrace: trap sampling, the batched kernel on
// the op's stream, then Eq 3.
func (g *traceGen) traced(ctx context.Context, rec *recorder, k int) (checkFn, error) {
	_, sp := rec.child(ctx, "trap", "trap.sample")
	profile := g.profile(k)
	rec.finish(sp)
	_, sp = rec.child(ctx, "markov", "markov.uniformise")
	paths, err := markov.UniformiseProfileBatch(profile, g.vgs, 0, g.sizes.TraceSpan, rng.New(opSeed(g.seed, k)))
	rec.finish(sp)
	if err != nil {
		return nil, err
	}
	_, sp = rec.child(ctx, "rtn", "rtn.compose")
	tr, err := rtn.Compose(paths, g.dev, g.vgs, g.id, 0, g.sizes.TraceSpan, g.sizes.TraceSamples)
	rec.finish(sp)
	if err != nil {
		return nil, err
	}
	return func() (opOut, error) { return traceDigest(tr, paths) }, nil
}

func (g *traceGen) layerMetrics(map[string]float64, *tracedPass) error { return nil }

func (g *traceGen) close() error { return nil }
