package experiments

import (
	"fmt"
	"io"

	samurai "samurai"
	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/sram"
	"samurai/internal/waveform"
)

// Fig8Occupancy summarises a transistor's trap activity split by the
// state of its gate net — the paper's plots (b) and (c) show that M5
// (gate = Q) toggles when Q is high and freezes when Q is low, and the
// mirror image for M6 (gate = Q̄).
type Fig8Occupancy struct {
	Transistor string
	Traps      int
	// TransRateGateHigh/Low are trap transitions per second while the
	// transistor's gate is above/below V_dd/2.
	TransRateGateHigh, TransRateGateLow float64
	// MeanFilledGateHigh/Low are the time-average filled counts.
	MeanFilledGateHigh, MeanFilledGateLow float64
}

// Fig8Result is the full-methodology demonstration.
type Fig8Result struct {
	Tech  string
	Vdd   float64
	Scale float64
	Bits  []int
	// CleanOK: plot (a) — the pattern writes correctly without RTN.
	CleanOK bool
	// M5, M6: plots (b), (c) — non-stationary occupancy statistics.
	M5, M6 Fig8Occupancy
	// M2TraceMax/Mean: plot (d) — the generated I_RTN for M2, A.
	M2TraceMax, M2TraceMean float64
	// ErrorCycles: plot (e) — write errors under ×Scale RTN.
	ErrorCycles []int
	SlowCycles  []int
	// UnscaledErrors is the error count at ×1 for contrast.
	UnscaledErrors int
	// Series data for CSV export (the literal plot curves): the clean
	// and RTN-injected Q waveforms, the filled-trap step functions of
	// M5/M6 and the M2 trace.
	QClean, QRTN       *waveform.PWL
	M5Times, M6Times   []float64
	M5Counts, M6Counts []int
	M2Trace            *rtn.Trace
}

// Fig8Config controls the methodology demonstration.
type Fig8Config struct {
	Tech    string
	VddFrac float64
	Scale   float64
	Seed    uint64
	// OccupancyEnsemble pools the plot-(b,c) occupancy statistics over
	// this many independently sampled trap populations (default 8) so
	// the reported contrast is not hostage to a single population's
	// fast-trap lottery. The headline run (plots a, d, e) still uses a
	// single population, exactly like the paper.
	OccupancyEnsemble int
}

func (c Fig8Config) defaults() Fig8Config {
	if c.Tech == "" {
		c.Tech = "32nm"
	}
	if c.VddFrac == 0 {
		c.VddFrac = 2.0 / 3.0
	}
	if c.Scale == 0 {
		c.Scale = 30
	}
	if c.OccupancyEnsemble == 0 {
		c.OccupancyEnsemble = 8
	}
	return c
}

// Fig8 runs the paper's §IV-B demonstration end to end: the bit pattern
// [1,1,0,1,0,1,0,0,1] is written to a marginal cell; SAMURAI generates
// per-transistor traces from the clean biases; the ×Scale accelerated
// re-simulation exhibits write errors while the unscaled one does not.
func Fig8(cfg Fig8Config) (*Fig8Result, error) {
	cfg = cfg.defaults()
	tech := device.Node(cfg.Tech)
	vdd := cfg.VddFrac * tech.Vdd
	cellCfg, err := sram.MarginalCellConfig(sram.CellConfig{Tech: tech, Vdd: vdd})
	if err != nil {
		return nil, err
	}
	pattern := sram.Fig8Pattern(vdd)

	scaled, err := samurai.Run(samurai.Config{
		Tech: tech, Cell: cellCfg, Pattern: pattern,
		Seed: cfg.Seed, Scale: cfg.Scale,
	})
	if err != nil {
		return nil, err
	}
	// Unscaled contrast run on the same trap populations.
	unscaled, err := samurai.Run(samurai.Config{
		Tech: tech, Cell: cellCfg, Pattern: pattern,
		Seed: cfg.Seed, Scale: 1, Profiles: scaled.Profiles,
	})
	if err != nil {
		return nil, err
	}

	res := &Fig8Result{
		Tech: cfg.Tech, Vdd: vdd, Scale: cfg.Scale,
		Bits:           pattern.Bits,
		CleanOK:        scaled.Clean.NumError == 0,
		UnscaledErrors: unscaled.WithRTN.NumError,
	}
	res.M5, err = occupancyStats("M5", scaled, sram.NodeQ, vdd, tech, cfg)
	if err != nil {
		return nil, err
	}
	res.M6, err = occupancyStats("M6", scaled, sram.NodeQB, vdd, tech, cfg)
	if err != nil {
		return nil, err
	}
	res.M2TraceMax = scaled.Traces["M2"].MaxAbs()
	res.M2TraceMean = scaled.Traces["M2"].Mean()
	res.QClean = scaled.Clean.Q
	res.QRTN = scaled.WithRTN.Q
	res.M5Times, res.M5Counts = rtn.NFilled(scaled.Paths["M5"])
	res.M6Times, res.M6Counts = rtn.NFilled(scaled.Paths["M6"])
	res.M2Trace = scaled.Traces["M2"]
	for _, c := range scaled.WithRTN.Cycles {
		if !c.Written {
			res.ErrorCycles = append(res.ErrorCycles, c.Index)
		} else if c.Slow {
			res.SlowCycles = append(res.SlowCycles, c.Index)
		}
	}
	return res, nil
}

// occupancyStats splits a transistor's trap activity by its gate state
// in the clean run, pooled over an ensemble of trap populations.
//
// Transitions inside a short guard window after each gate edge are not
// attributed to either state: a falling gate edge forces exactly one
// relaxation emission per filled trap, which is the occupancy
// *following* the bias rather than sustained telegraph activity — the
// paper's exploded views show the sustained toggling, which is what the
// high/low rates here measure.
func occupancyStats(name string, run *samurai.Result, gateNode string, vdd float64, tech device.Technology, cfg Fig8Config) (Fig8Occupancy, error) {
	gate, err := run.Clean.Trans.Voltage(gateNode)
	if err != nil {
		return Fig8Occupancy{}, err
	}
	vgs, _, err := run.Clean.Trans.DeviceBias(name)
	if err != nil {
		return Fig8Occupancy{}, err
	}
	t0, t1 := gate.Begin(), gate.End()
	edges := gate.Crossings(vdd / 2)
	const guard = 150e-12
	afterEdge := func(t float64) bool {
		for _, e := range edges {
			if t >= e && t-e < guard {
				return true
			}
		}
		return false
	}

	st := Fig8Occupancy{Transistor: name, Traps: len(run.Paths[name])}
	dev := run.Config.Cell.Defaults()
	allParams, err := sram.DeviceParams(dev)
	if err != nil {
		return Fig8Occupancy{}, err
	}
	devParams := allParams[name]
	ctx := tech.TrapContext(dev.Vdd)
	profiler := tech.TrapProfiler()
	root := rng.New(cfg.Seed ^ 0x5f8a)

	var tHigh, tLow, fillHigh, fillLow float64
	var transHigh, transLow float64
	ensembles := cfg.OccupancyEnsemble
	for k := 0; k < ensembles; k++ {
		var paths []*markov.Path
		if k == 0 {
			paths = run.Paths[name] // the headline population
		} else {
			profile := profiler.Sample(devParams.W, devParams.L, ctx, root.Split(uint64(2*k)))
			paths, err = markov.UniformiseProfileBatch(profile, vgs, t0, t1, root.Split(uint64(2*k+1)))
			if err != nil {
				return Fig8Occupancy{}, err
			}
		}
		const probes = 2000
		dt := (t1 - t0) / probes
		times, counts := rtn.NFilled(paths)
		for i := 0; i < probes; i++ {
			t := t0 + (float64(i)+0.5)*dt
			nf := float64(rtn.CountAt(times, counts, t))
			if gate.Eval(t) > vdd/2 {
				tHigh += dt
				fillHigh += nf * dt
			} else {
				tLow += dt
				fillLow += nf * dt
			}
		}
		for _, p := range paths {
			for i := 1; i < len(p.Times); i++ {
				t := p.Times[i]
				if afterEdge(t) {
					continue
				}
				if gate.Eval(t) > vdd/2 {
					transHigh++
				} else {
					transLow++
				}
			}
		}
	}
	if tHigh > 0 {
		st.TransRateGateHigh = transHigh / tHigh
		st.MeanFilledGateHigh = fillHigh / tHigh
	}
	if tLow > 0 {
		st.TransRateGateLow = transLow / tLow
		st.MeanFilledGateLow = fillLow / tLow
	}
	return st, nil
}

// WriteText renders the five-plot summary.
func (r *Fig8Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "Fig 8 — SAMURAI+SPICE methodology (%s marginal cell, Vdd=%.2f V, pattern %v)\n",
		r.Tech, r.Vdd, r.Bits)
	fmt.Fprintf(w, "(a) clean write pass: %v\n", r.CleanOK)
	occ := func(o Fig8Occupancy) {
		fmt.Fprintf(w, "    %s (%d traps): trans/s gate-high %.3g, gate-low %.3g; mean filled high %.2f, low %.2f\n",
			o.Transistor, o.Traps, o.TransRateGateHigh, o.TransRateGateLow,
			o.MeanFilledGateHigh, o.MeanFilledGateLow)
	}
	fmt.Fprintln(w, "(b,c) non-stationary trap occupancy:")
	occ(r.M5)
	occ(r.M6)
	fmt.Fprintf(w, "(d) M2 I_RTN trace: max %.3g A, mean %.3g A (×%.0f accelerated)\n",
		r.M2TraceMax, r.M2TraceMean, r.Scale)
	fmt.Fprintf(w, "(e) write errors at ×%.0f: cycles %v (slow: %v); at ×1: %d errors\n",
		r.Scale, r.ErrorCycles, r.SlowCycles, r.UnscaledErrors)
}

// NonStationaryContrast returns the M5 gate-high/gate-low transition
// rate ratio — the quantitative form of the paper's plots (b)/(c)
// (must be ≫ 1 for M5, and the mirrored statistic for M6).
func (r *Fig8Result) NonStationaryContrast() (m5, m6 float64) {
	m5 = ratio(r.M5.TransRateGateHigh, r.M5.TransRateGateLow)
	m6 = ratio(r.M6.TransRateGateHigh, r.M6.TransRateGateLow)
	return
}

func ratio(a, b float64) float64 {
	if b == 0 {
		if a == 0 {
			return 1
		}
		return markovInf
	}
	return a / b
}

const markovInf = 1e30
