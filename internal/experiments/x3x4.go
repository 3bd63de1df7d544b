package experiments

import (
	"fmt"
	"io"
	"math"

	"samurai/internal/circuit"
	"samurai/internal/device"
	"samurai/internal/markov"
	"samurai/internal/num"
	"samurai/internal/rng"
	"samurai/internal/rtn"
	"samurai/internal/waveform"
)

// ---------------------------------------------------------------------
// EXP-X3: RTN–NBTI correlation from the common trap origin (§I-B).
// ---------------------------------------------------------------------

// X3Result quantifies the paper's observation that "RTN and NBTI are
// positively correlated … most likely due to this common root cause":
// both are computed from the *same* sampled trap population per device,
// so devices rich in traps suffer both more RTN and more NBTI.
type X3Result struct {
	Tech    string
	Devices int
	// Pearson is the cross-device correlation coefficient between the
	// RTN amplitude metric and the NBTI shift metric.
	Pearson float64
	// MeanRTNmV and MeanNBTImV are the population means (in mV of
	// equivalent threshold shift).
	MeanRTNmV, MeanNBTImV float64
	// MarginCreditFrac is the fraction of the naive RTN+NBTI guard
	// band recovered when budgeting them jointly (quantile of the sum)
	// instead of summing individual quantiles — the "more design
	// choices" the paper promises from exploiting the correlation.
	MarginCreditFrac float64
}

// X3Config controls EXP-X3.
type X3Config struct {
	Tech    string
	Devices int
	Seed    uint64
}

func (c X3Config) defaults() X3Config {
	if c.Tech == "" {
		c.Tech = "32nm"
	}
	if c.Devices == 0 {
		c.Devices = 400
	}
	return c
}

// X3 samples many device instances and computes, per instance:
//
//   - an RTN metric: ΔVt · (count of bias-active traps) — the
//     threshold fluctuation amplitude the device can exhibit;
//   - an NBTI metric: ΔVt · Σ over slow traps of their stationary
//     occupancy at stress bias — the quasi-permanent component of
//     trapped charge after prolonged high-V_gs stress (the
//     trapping/detrapping picture of NBTI shares Eq (1)–(2) with RTN).
//
// It reports the cross-device Pearson correlation and the guard-band
// credit from budgeting the two jointly.
func X3(cfg X3Config) (*X3Result, error) {
	cfg = cfg.defaults()
	tech := device.Node(cfg.Tech)
	dev := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
	ctx := tech.TrapContext(tech.Vdd)
	profiler := tech.TrapProfiler()
	dVt := rtn.DeltaVt(dev)
	root := rng.New(cfg.Seed)

	// "Slow" traps for the NBTI metric: total rate below 1 MHz — on
	// SRAM operational timescales (nanosecond cycles) these never
	// detrap, so their occupancy is a quasi-permanent threshold shift,
	// which is exactly the trapping picture of NBTI. (The same traps
	// ARE the slow tail of the RTN spectrum — the common root cause.)
	const slowRate = 1e6
	rtnM := make([]float64, cfg.Devices)
	nbtiM := make([]float64, cfg.Devices)
	for d := 0; d < cfg.Devices; d++ {
		profile := profiler.Sample(dev.W, dev.L, ctx, root.Split(uint64(d)))
		active := profile.ActiveTraps(tech.Vdd, 0.05)
		rtnM[d] = dVt * float64(len(active))
		nbti := 0.0
		for _, tr := range profile.Traps {
			if ctx.RateSum(tr) < slowRate {
				nbti += ctx.OccupancyProb(tr, tech.Vdd)
			}
		}
		nbtiM[d] = dVt * nbti
	}

	res := &X3Result{
		Tech: cfg.Tech, Devices: cfg.Devices,
		Pearson:    pearson(rtnM, nbtiM),
		MeanRTNmV:  num.Mean(rtnM) * 1e3,
		MeanNBTImV: num.Mean(nbtiM) * 1e3,
	}

	// Guard-band credit: compare q99(RTN)+q99(NBTI) (independent
	// budgeting) against q99(RTN+NBTI) (joint budgeting). With
	// positive correlation the joint quantile is still smaller than
	// the sum of quantiles, and the saved margin is the credit.
	sum := make([]float64, cfg.Devices)
	for i := range sum {
		sum[i] = rtnM[i] + nbtiM[i]
	}
	indep := num.Quantile(rtnM, 0.99) + num.Quantile(nbtiM, 0.99)
	joint := num.Quantile(sum, 0.99)
	if indep > 0 {
		res.MarginCreditFrac = (indep - joint) / indep
	}
	return res, nil
}

func pearson(x, y []float64) float64 {
	mx, my := num.Mean(x), num.Mean(y)
	var sxy, sxx, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// WriteText renders the EXP-X3 summary.
func (r *X3Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "EXP-X3 — RTN–NBTI correlation from common trap origin (%s, %d devices)\n", r.Tech, r.Devices)
	fmt.Fprintf(w, "mean RTN amplitude: %.2f mV; mean NBTI shift: %.2f mV (ΔVt equivalents)\n",
		r.MeanRTNmV, r.MeanNBTImV)
	fmt.Fprintf(w, "Pearson correlation: %.3f\n", r.Pearson)
	fmt.Fprintf(w, "joint-budgeting guard-band credit at q99: %.1f%%\n", r.MarginCreditFrac*100)
}

// ---------------------------------------------------------------------
// EXP-X4: RTN in ring oscillators (paper future-work #4).
// ---------------------------------------------------------------------

// X4Result compares a CMOS ring oscillator's period statistics with and
// without RTN injection — the paper notes "RTN is also known to impact
// ring oscillators".
type X4Result struct {
	Tech   string
	Stages int
	Scale  float64
	// CleanPeriodPs and CleanJitterPs: mean period and cycle-to-cycle
	// std without RTN (the jitter is numerical-noise level).
	CleanPeriodPs, CleanJitterPs float64
	// RTNPeriodPs and RTNJitterPs: with ×Scale RTN on every device.
	RTNPeriodPs, RTNJitterPs float64
	// PeriodShiftFrac is |T_rtn − T_clean| / T_clean.
	PeriodShiftFrac        float64
	CleanCycles, RTNCycles int
}

// X4Config controls EXP-X4.
type X4Config struct {
	Tech   string
	Stages int
	Scale  float64
	Seed   uint64
	// Horizon is the simulated time; zero → 12 ns.
	Horizon float64
}

func (c X4Config) defaults() X4Config {
	if c.Tech == "" {
		c.Tech = "32nm"
	}
	if c.Stages == 0 {
		c.Stages = 5
	}
	if c.Scale == 0 {
		c.Scale = 30
	}
	if c.Horizon == 0 {
		c.Horizon = 12e-9
	}
	return c
}

// buildRing elaborates an n-stage ring oscillator and returns the
// circuit plus the per-stage device names.
func buildRing(tech device.Technology, stages int, vdd float64) (*circuit.Circuit, []string, error) {
	ckt := circuit.New()
	if err := ckt.AddDCVSource("VDD", "vdd", circuit.Ground, vdd); err != nil {
		return nil, nil, err
	}
	nm := device.NewMOS(tech, device.NMOS, 2*tech.Lmin, tech.Lmin)
	pm := device.NewMOS(tech, device.PMOS, 4*tech.Lmin, tech.Lmin)
	var devices []string
	node := func(i int) string { return fmt.Sprintf("n%d", i%stages) }
	for i := 0; i < stages; i++ {
		in, out := node(i), node(i+1)
		nName := fmt.Sprintf("MN%d", i)
		pName := fmt.Sprintf("MP%d", i)
		if err := ckt.AddMOSFET(nName, out, in, circuit.Ground, nm); err != nil {
			return nil, nil, err
		}
		if err := ckt.AddMOSFET(pName, out, in, "vdd", pm); err != nil {
			return nil, nil, err
		}
		if err := ckt.AddCapacitor(fmt.Sprintf("C%d", i), out, circuit.Ground, 2e-15); err != nil {
			return nil, nil, err
		}
		// Companion RTN sources (drain↔source, opposing polarity by
		// the Eq (3) sign convention).
		if err := ckt.AddISource("IRTN_"+nName, circuit.Ground, out, waveform.Constant(0)); err != nil {
			return nil, nil, err
		}
		if err := ckt.AddISource("IRTN_"+pName, "vdd", out, waveform.Constant(0)); err != nil {
			return nil, nil, err
		}
		devices = append(devices, nName, pName)
	}
	return ckt, devices, nil
}

func ringInitial(stages int, vdd float64) map[string]float64 {
	init := map[string]float64{"vdd": vdd}
	for i := 0; i < stages; i++ {
		v := 0.0
		if i%2 == 0 {
			v = vdd
		}
		init[fmt.Sprintf("n%d", i)] = v
	}
	return init
}

// ringPeriods runs the transient and extracts the oscillation periods
// of node n0 from its rising V_dd/2 crossings, discarding the first few
// start-up cycles.
func ringPeriods(ckt *circuit.Circuit, stages int, vdd, horizon float64) ([]float64, error) {
	res, err := ckt.Transient(circuit.TransientSpec{
		T0: 0, T1: horizon, Dt: 1e-12,
		UIC: true, InitialV: ringInitial(stages, vdd),
	})
	if err != nil {
		return nil, err
	}
	v, err := res.Voltage("n0")
	if err != nil {
		return nil, err
	}
	crossings := v.Crossings(vdd / 2)
	// Keep rising edges only: value grows across the crossing.
	var rising []float64
	for _, t := range crossings {
		if v.Eval(t+2e-12) > v.Eval(t-2e-12) {
			rising = append(rising, t)
		}
	}
	if len(rising) < 6 {
		return nil, fmt.Errorf("experiments: ring produced only %d rising edges", len(rising))
	}
	var periods []float64
	for i := 3; i < len(rising); i++ { // skip start-up
		periods = append(periods, rising[i]-rising[i-1])
	}
	return periods, nil
}

// X4 measures the ring oscillator with and without RTN. The RTN pass
// uses the two-pass methodology: device biases from the clean run,
// uniformised trap paths, Eq (3) traces scaled by cfg.Scale.
func X4(cfg X4Config) (*X4Result, error) {
	cfg = cfg.defaults()
	tech := device.Node(cfg.Tech)
	vdd := tech.Vdd

	cleanCkt, devices, err := buildRing(tech, cfg.Stages, vdd)
	if err != nil {
		return nil, err
	}
	cleanRes, err := cleanCkt.Transient(circuit.TransientSpec{
		T0: 0, T1: cfg.Horizon, Dt: 1e-12,
		UIC: true, InitialV: ringInitial(cfg.Stages, vdd),
	})
	if err != nil {
		return nil, err
	}
	cleanRing, _, err := buildRing(tech, cfg.Stages, vdd)
	if err != nil {
		return nil, err
	}
	cleanPeriods, err := ringPeriods(cleanRing, cfg.Stages, vdd, cfg.Horizon)
	if err != nil {
		return nil, err
	}

	// RTN pass: traces per device from the clean biases.
	ctx := tech.TrapContext(vdd)
	profiler := tech.TrapProfiler()
	rtnCkt, _, err := buildRing(tech, cfg.Stages, vdd)
	if err != nil {
		return nil, err
	}
	root := rng.New(cfg.Seed)
	for i, name := range devices {
		var dp device.MOSParams
		dp, err = rtnCkt.MOSFETParams(name)
		if err != nil {
			return nil, err
		}
		profile := profiler.Sample(dp.W, dp.L, ctx, root.Split(uint64(10+i)))
		vgs, id, err := cleanRes.DeviceBias(name)
		if err != nil {
			return nil, err
		}
		paths, err := markov.UniformiseProfileBatch(profile, vgs, 0, cfg.Horizon, root.Split(uint64(100+i)))
		if err != nil {
			return nil, err
		}
		trace, err := rtn.Compose(paths, dp, vgs, id, 0, cfg.Horizon, 4096)
		if err != nil {
			return nil, err
		}
		w, err := trace.Scale(cfg.Scale).PWL()
		if err != nil {
			return nil, err
		}
		if err := rtnCkt.SetISourceWaveform("IRTN_"+name, w); err != nil {
			return nil, err
		}
	}
	rtnPeriods, err := ringPeriods(rtnCkt, cfg.Stages, vdd, cfg.Horizon)
	if err != nil {
		return nil, err
	}

	res := &X4Result{
		Tech: cfg.Tech, Stages: cfg.Stages, Scale: cfg.Scale,
		CleanPeriodPs: num.Mean(cleanPeriods) * 1e12,
		CleanJitterPs: num.StdDev(cleanPeriods) * 1e12,
		RTNPeriodPs:   num.Mean(rtnPeriods) * 1e12,
		RTNJitterPs:   num.StdDev(rtnPeriods) * 1e12,
		CleanCycles:   len(cleanPeriods),
		RTNCycles:     len(rtnPeriods),
	}
	if res.CleanPeriodPs > 0 {
		res.PeriodShiftFrac = math.Abs(res.RTNPeriodPs-res.CleanPeriodPs) / res.CleanPeriodPs
	}
	return res, nil
}

// WriteText renders the EXP-X4 summary.
func (r *X4Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "EXP-X4 — RTN in a %d-stage %s ring oscillator (×%.0f)\n", r.Stages, r.Tech, r.Scale)
	fmt.Fprintf(w, "%8s %14s %16s %8s\n", "run", "period (ps)", "c2c jitter (ps)", "cycles")
	fmt.Fprintf(w, "%8s %14.2f %16.3f %8d\n", "clean", r.CleanPeriodPs, r.CleanJitterPs, r.CleanCycles)
	fmt.Fprintf(w, "%8s %14.2f %16.3f %8d\n", "RTN", r.RTNPeriodPs, r.RTNJitterPs, r.RTNCycles)
	fmt.Fprintf(w, "period shift: %.2f%%\n", r.PeriodShiftFrac*100)
}
