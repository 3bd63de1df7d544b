package samurai

import (
	"fmt"

	"samurai/internal/circuit"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/sram"
	"samurai/internal/waveform"
)

// CoupledResult is the outcome of a bidirectionally-coupled
// co-simulation (paper future-work #1): instead of pre-computing biases
// with an RTN-free pass, the trap chains and the circuit advance
// together, each step's trap propensities evaluated at the circuit's
// *current* (RTN-perturbed) bias and each step's RTN current computed
// from the traps' *current* occupancy.
type CoupledResult struct {
	Config Config
	Cycles []sram.CycleResult
	Q, QB  *waveform.PWL
	// Paths are the realised trap occupancy paths per transistor.
	Paths map[string][]*markov.Path
	// Traces are the realised injected RTN currents per transistor.
	Traces   map[string]*rtn.Trace
	NumError int
	NumSlow  int
}

// RunCoupled executes the coupled co-simulation. Each circuit step:
//
//  1. reads every transistor's present V_gs and I_d,
//  2. advances that transistor's trap chains across the step window,
//  3. sets the transistor's RTN source to Eq (3) evaluated at the
//     present bias and occupancy,
//  4. advances the circuit by one implicit step.
//
// Compared with Run (the paper's two-pass methodology), the RTN here
// feeds back into the very biases that modulate the traps.
func RunCoupled(cfg Config) (*CoupledResult, error) {
	cfg = cfg.defaults()
	root := rng.New(cfg.Seed)

	wl, bl, blb, err := cfg.Pattern.Waveforms()
	if err != nil {
		return nil, fmt.Errorf("samurai: pattern: %w", err)
	}
	cell, err := sram.Build(cfg.Cell, wl, bl, blb)
	if err != nil {
		return nil, err
	}

	t0, t1 := 0.0, cfg.Pattern.Duration()
	ctx := cfg.Tech.TrapContext(cfg.Cell.Defaults().Vdd)

	// One batch of live trap lanes per transistor, reusing pinned
	// profiles when provided so Run and RunCoupled can be compared on
	// identical populations. Lane k of transistor i draws from
	// root.Split(2000+i).Split(k), as in Run.
	live := map[string]*markov.BatchState{}
	for i, name := range sram.Transistors {
		dev := cell.Params[name]
		profile, ok := cfg.Profiles[name]
		if !ok {
			profile = cfg.Tech.TrapProfiler().Sample(dev.W, dev.L, ctx, root.Split(uint64(1000+i)))
		}
		bs := markov.NewBatchState()
		if err := bs.Start(profile.Ctx, profile.Traps, t0, t1, root.Split(uint64(2000+i))); err != nil {
			return nil, err
		}
		live[name] = bs
	}

	firstBit := 0
	if cfg.Pattern.Bits[0] == 0 {
		firstBit = 1
	}
	runner, err := cell.Circuit.NewRunner(circuit.TransientSpec{
		T0: t0, T1: t1, Dt: cfg.Dt,
		UIC:      true,
		InitialV: cell.InitialConditions(firstBit),
	})
	if err != nil {
		return nil, err
	}

	traceT := map[string][]float64{}
	traceI := map[string][]float64{}
	for !runner.Done() {
		now := runner.Time()
		next := now + cfg.Dt
		if next > t1 {
			next = t1
		}
		for _, name := range sram.Transistors {
			vgs, _, id, err := runner.DeviceOp(name)
			if err != nil {
				return nil, err
			}
			// The bias is frozen over the (one circuit timestep wide)
			// window: the co-simulation is first-order accurate in dt,
			// while exact in the candidate times because λ* is
			// bias-independent (Eq 1).
			nFilled := live[name].AdvanceTo(next, vgs)
			iRTN := 0.0
			if nFilled > 0 {
				dev := cell.Params[name]
				iRTN = id / dev.CarrierCount(vgs) * float64(nFilled) * cfg.Scale
				// Physical bound: trapped charge can at most suppress
				// the channel current entirely — clamping keeps the
				// accelerated (×Scale) feedback loop well-posed.
				if iRTN > id && id > 0 {
					iRTN = id
				}
				if iRTN < id && id < 0 {
					iRTN = id
				}
			}
			if err := cell.SetRTNTrace(name, waveform.Constant(iRTN)); err != nil {
				return nil, err
			}
			traceT[name] = append(traceT[name], next)
			traceI[name] = append(traceI[name], iRTN)
		}
		if err := runner.Step(cfg.Dt); err != nil {
			return nil, fmt.Errorf("samurai: coupled step: %w", err)
		}
	}

	res := runner.Result()
	q, err := res.Voltage(sram.NodeQ)
	if err != nil {
		return nil, err
	}
	qb, err := res.Voltage(sram.NodeQB)
	if err != nil {
		return nil, err
	}
	out := &CoupledResult{
		Config: cfg, Q: q, QB: qb,
		Paths:  map[string][]*markov.Path{},
		Traces: map[string]*rtn.Trace{},
	}
	for _, name := range sram.Transistors {
		out.Paths[name] = live[name].Finish()
		out.Traces[name] = &rtn.Trace{T: traceT[name], I: traceI[name]}
	}
	out.Cycles = sram.ClassifyCycles(cfg.Pattern, q)
	for _, cr := range out.Cycles {
		if !cr.Written {
			out.NumError++
		}
		if cr.Slow {
			out.NumSlow++
		}
	}
	return out, nil
}
